package perfbench

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._

import repro.{Oracle, SynthData}
import repro.agg.{AggFunc, GroupAggregate, IncrementalGroupAggregate}
import repro.harness.experiments.E1RelationalIvm
import repro.relational.Incrementalizer
import repro.zset.ZSet

/** `orders ⋈ customer` at scale factor `sf`, bulk-loaded, then ticks that
  * each delete `perTick` live orders and insert `perTick` fresh ones, so R
  * stays constant. Each tick maintains three views: the §4.4 query of E1
  * (Algorithm 4.8), and per-customer SUM and MIN of `o_totalprice` (§7.4).
  */
final class Orders(spark: SparkSession, sf: Double, perTick: Int, seed: Long) extends Workload {
  import Orders._

  private val rnd = new java.util.Random(seed)
  // Driver-side snapshot of the orders relation; index-addressable so a
  // uniformly random live order can be deleted in O(1).
  private val live = mutable.ArrayBuffer.empty[Row]
  private var nextKey = 0L
  private var nCustomers = 0L
  private var customer: ZSet = _

  def setup(): (Instance, Seq[ZSet]) = {
    val orders = ZSet.fromSet(SynthData.orders(spark, sf, seed * 2 + 1)
      .select(OrderCols.map(col): _*)).compact()
    customer = ZSet.fromSet(SynthData.customer(spark, sf, seed * 2 + 2)
      .select("c_custkey", "c_mktsegment")).compact()
    if (live.isEmpty) {
      // Every set-up generates the same data; the first one seeds the stream.
      live ++= orders.df.drop(ZSet.W).collect()
      nextKey = live.map(_.getLong(0)).max
      nCustomers = customer.physicalCount
    }
    val inst = new OrdersInstance(spark, customer)
    (inst, inst.load(orders, customer))
  }

  def nextChange(): Change = {
    val dels = Seq.fill(perTick) {
      val i = rnd.nextInt(live.size)
      val r = live(i)
      live(i) = live.last
      live.remove(live.size - 1)
      r
    }
    val ins = Seq.fill(perTick) {
      nextKey += 1
      Row(nextKey, 1L + rnd.nextLong(nCustomers),
          math.round((rnd.nextDouble() * 500000 + 1000) * 100) / 100.0)
    }
    live ++= ins
    val rows = ins.map(r => Row(r.get(0), r.get(1), r.get(2), 1L)) ++
               dels.map(r => Row(r.get(0), r.get(1), r.get(2), -1L))
    Change(ZSet.raw(spark.createDataFrame(rows.asJava, OrderSchemaW)), rows.size.toLong)
  }

  private def snapshot: ZSet =
    ZSet.raw(spark.createDataFrame(live.map(r => Row(r.get(0), r.get(1), r.get(2), 1L)).asJava,
      OrderSchemaW))

  private def expected(tr: Tracer): Expected = tr.span("check") {
    val s = snapshot
    val rel = Incrementalizer.batch(E1RelationalIvm.query, Map("orders" -> s, "customer" -> customer))
    val sum = GroupAggregate.batch(s, Keys, SumF).df.collect()
      .map(r => r.getAs[Long]("o_custkey") -> r.getAs[Double](SumF.alias)).toMap
    Expected(rel.compact(), sum, GroupAggregate.batch(s, Keys, MinF).compact())
  }

  /** One checker per view; each returns its failure, if any. */
  private def checkers(e: Expected, tr: Tracer): Seq[Integral => Option[String]] = Seq(
    v => tr.span("check")(Option.when(!v.toZSet(spark).zequals(e.rel))(
      "relational view differs from Incrementalizer.batch")),
    v => tr.span("check") {
      val got = v.entries.toSeq
      val ok = got.size == e.sum.size && got.forall { case (k, w) =>
        val (c, x) = (k(0).asInstanceOf[Long], k(1).asInstanceOf[Double])
        w == 1L && e.sum.get(c).exists(y => math.abs(x - y) <= SumRelTol * math.max(1.0, math.abs(y)))
      }
      Option.when(!ok)("SUM view differs from GroupAggregate.batch")
    },
    v => tr.span("check")(Option.when(!v.toZSet(spark).zequals(e.min))(
      "MIN view differs from GroupAggregate.batch")))

  def check(insts: Seq[Instance], tr: Tracer): Checked = {
    val e = expected(tr)
    val cs = checkers(e, tr)
    val failures = insts.flatMap(i => cs.zip(i.views).flatMap { case (c, v) => c(v) }) ++
      oracle(insts.head.views.head, tr)
    // One wrong delta per view: a retracted E1 row, a SUM off by 1.0, a MIN
    // lowered by 0.01.
    val Seq(rel, sum, min) = insts.head.views
    def any(i: Integral) = i.entries.next()._1
    val (s, m) = (any(sum), any(min))
    val perturbed = Seq(
      rel.plus(Seq(any(rel) -> -1L)),
      sum.plus(Seq(s -> -1L, Seq(s(0), s(1).asInstanceOf[Double] + 1.0) -> 1L)),
      min.plus(Seq(m -> -1L, Seq(m(0), m(1).asInstanceOf[Double] - 0.01) -> 1L)))
    Checked(failures, cs.zip(perturbed).count { case (c, v) => c(v).isEmpty })
  }

  /** The E1 view against DuckDB, on the orders of every `OracleSample`-th
    * customer (loading rows into DuckDB dominates the cost). `Oracle` loads
    * every column as VARCHAR, so each one is cast before it is compared or
    * joined.
    */
  private def oracle(rel: Integral, tr: Tracer): Seq[String] = tr.span("check") {
    val sampled = live.filter(_.getLong(1) % OracleSample == 0)
    val keys = sampled.map(_.getLong(0)).toSet
    val view = rel.restrict(k => keys.contains(k(0).asInstanceOf[Long])).toZSet(spark).toSetDF
    val orders = spark.createDataFrame(sampled.asJava, StructType(OrderSchemaW.dropRight(1)))
    val customers = customer.df.drop(ZSet.W).where(s"c_custkey % $OracleSample = 0")
    val sql =
      """SELECT DISTINCT CAST(o.o_orderkey AS BIGINT) AS o_orderkey,
        |       CAST(c.c_mktsegment AS VARCHAR) AS c_mktsegment
        |FROM orders o JOIN customer c ON CAST(o.o_custkey AS BIGINT) = CAST(c.c_custkey AS BIGINT)
        |WHERE CAST(o.o_totalprice AS DOUBLE) > 100000""".stripMargin
    try { Oracle.assertEquivalent(view, sql, "orders" -> orders, "customer" -> customers); Nil }
    catch { case e: IllegalArgumentException => Seq(s"DuckDB: ${e.getMessage}") }
  }
}

object Orders {
  /** From-scratch references for the current snapshot: the E1 view and the
    * MIN view as Z-sets, the SUM view as a driver-side map.
    */
  final case class Expected(rel: ZSet, sum: Map[Long, Double], min: ZSet)

  val OrderCols: Seq[String] = Seq("o_orderkey", "o_custkey", "o_totalprice")
  val OrderSchemaW: StructType = StructType(Seq(
    StructField("o_orderkey", LongType, nullable = false),
    StructField("o_custkey", LongType, nullable = false),
    StructField("o_totalprice", DoubleType, nullable = false),
    StructField(ZSet.W, LongType, nullable = false)))
  val Keys: Seq[String] = Seq("o_custkey")
  val SumF: AggFunc.Sum = AggFunc.Sum("o_totalprice")
  val MinF: AggFunc.Min = AggFunc.Min("o_totalprice")
  /** Double sums depend on addition order; integrated and batch SUMs agree
    * to within this relative error.
    */
  val SumRelTol = 1e-9
  /** The DuckDB comparison covers customers whose key is a multiple of this. */
  val OracleSample = 8
}

final class OrdersInstance(spark: SparkSession, customer: ZSet) extends Instance {
  import Orders._

  private val rel = Incrementalizer.incremental(E1RelationalIvm.query)
  private val sum = new IncrementalGroupAggregate(Keys, SumF)
  private val min = new IncrementalGroupAggregate(Keys, MinF)
  private val noCustomers = ZSet.empty(spark, customer.dataSchema)
  private var integrals: Seq[Integral] = Nil

  def views: Seq[Integral] = integrals

  private def apply(orders: ZSet, cust: ZSet, tr: Tracer): Seq[ZSet] = {
    val r = tr.span("relational.step")(rel.step(Map("orders" -> orders, "customer" -> cust)))
    val s = tr.span("agg.sum.step")(sum.step(orders))
    val m = tr.span("agg.min.step")(min.step(orders))
    tr.span("zset.materialize")(Seq(r, s, m).map(Materialize(_)))
  }

  def load(orders: ZSet, cust: ZSet): Seq[ZSet] = {
    val outs = apply(orders, cust, new Tracer(spark.sparkContext, enabled = false))
    integrals = outs.map(o => new Integral(o.dataSchema))
    outs
  }

  def tick(c: Change, tr: Tracer): Seq[ZSet] = apply(c.delta, noCustomers, tr)
}
