package perfbench

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.types._

import repro.{Oracle, SynthGraph}
import repro.nested.IncrementalTransitiveClosure
import repro.recursive.TransitiveClosure
import repro.zset.ZSet

/** A layered DAG (`layers` × `width` nodes, `fanout` edges per node into the
  * next layer), bulk-loaded into the Figure 2 incremental transitive closure,
  * then single-edge updates in a fixed cycle of six: insert a long-range
  * edge (first layer to last), insert a local edge (layer i to i+1), delete
  * the long-range edge, insert a cross-layer edge (layer i to i+2), delete
  * the local edge, delete the cross-layer edge. The seed picks the endpoints;
  * inserted edges are always new, so the graph stays a set. The graph itself
  * is the same for every seed: its closure size sets the retained state, and
  * a seed-dependent graph would make `state_mb` vary between runs.
  */
final class Tc(spark: SparkSession, layers: Int, width: Int, fanout: Int, seed: Long)
    extends Workload {
  require(layers >= 3, "cross-layer edges need three layers")

  private val rnd = new java.util.Random(seed)
  private val live = mutable.LinkedHashSet.empty[(Long, Long)]
  private val pending = mutable.Queue.empty[(Long, Long)]
  private var op = 0

  def setup(): (Instance, Seq[ZSet]) = {
    val edges = ZSet.fromSet(SynthGraph.layeredEdges(spark, layers, width, fanout)).compact()
    if (live.isEmpty)
      live ++= edges.df.drop(ZSet.W).collect().map(r => (r.getLong(0), r.getLong(1)))
    val inst = new TcInstance(spark)
    (inst, inst.load(edges))
  }

  private def node(layer: Int): Long = layer.toLong * width + rnd.nextInt(width)

  /** A new edge from a random node of `from` to a random node of `from + span`. */
  private def freshEdge(from: Int, span: Int): (Long, Long) =
    Iterator.continually((node(from), node(from + span))).find(e => !live.contains(e)).get

  def nextChange(): Change = {
    val (edge, w) = op % 6 match {
      case 0 => (freshEdge(0, layers - 1), 1L)
      case 1 => (freshEdge(rnd.nextInt(layers - 1), 1), 1L)
      case 3 => (freshEdge(rnd.nextInt(layers - 2), 2), 1L)
      case _ => (pending.dequeue(), -1L)
    }
    op += 1
    if (w > 0) { live += edge; pending.enqueue(edge) } else live -= edge
    val row = Row(edge._1, edge._2, w)
    val full = StructType(TransitiveClosure.eSchema.fields :+
      StructField(ZSet.W, LongType, nullable = false))
    Change(ZSet.raw(spark.createDataFrame(Seq(row).asJava, full)), 1L)
  }

  private def snapshot: ZSet =
    ZSet.fromSet(spark.createDataFrame(live.toSeq.map { case (h, t) => Row(h, t) }.asJava,
      TransitiveClosure.eSchema))

  private def expected(tr: Tracer): ZSet = {
    val s = snapshot
    val (r, stats) = tr.span("recursive.semi_naive")(TransitiveClosure.semiNaive(s))
    tr.count("recursive.derived_tuples", stats.totalWork.toDouble)
    tr.span("check")(r.compact())
  }

  def check(insts: Seq[Instance], tr: Tracer): Checked = {
    val e = expected(tr)
    def differs(v: Integral) = tr.span("check")(!v.toZSet(spark).zequals(e))
    val views = insts.map(_.views.head)
    val failures = views.filter(differs).map(_ => "closure differs from TransitiveClosure.semiNaive")
    // The wrong delta asserts a pair the DAG cannot reach: last layer to first.
    val bogus = Seq((layers - 1).toLong * width, 0L) -> 1L
    Checked(failures ++ oracle(views.head, tr), if (differs(views.head.plus(Seq(bogus)))) 0 else 1)
  }

  /** The closure against DuckDB's `WITH RECURSIVE`. `Oracle` loads every
    * column as VARCHAR, so the edge table is cast before the recursion.
    */
  private def oracle(view: Integral, tr: Tracer): Seq[String] = tr.span("check") {
    val sql = TransitiveClosure.oracleSql.replaceFirst("WITH RECURSIVE ",
      "WITH RECURSIVE e AS (SELECT CAST(h AS BIGINT) AS h, CAST(t AS BIGINT) AS t FROM e_raw), ")
    try {
      Oracle.assertEquivalent(view.toZSet(spark).toSetDF, sql, "e_raw" -> snapshot.df.drop(ZSet.W))
      Nil
    } catch { case e: IllegalArgumentException => Seq(s"DuckDB: ${e.getMessage}") }
  }
}

final class TcInstance(spark: SparkSession) extends Instance {
  private val tc = new IncrementalTransitiveClosure(spark)
  private val closure = new Integral(TransitiveClosure.rSchema)

  def views: Seq[Integral] = Seq(closure)

  def load(edges: ZSet): Seq[ZSet] = Seq(Materialize(tc.step(edges)._1))

  def tick(c: Change, tr: Tracer): Seq[ZSet] = {
    val (out, stats) = tr.span("nested.step")(tc.step(c.delta))
    tr.count("nested.inner_iterations", stats.innerIterations.toDouble)
    tr.count("nested.delta_tuples", stats.totalDelta.toDouble)
    Seq(tr.span("zset.materialize")(Materialize(out)))
  }
}
