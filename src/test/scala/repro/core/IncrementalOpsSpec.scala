package repro.core

import scala.util.Random

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types._

import repro.algebra.Group
import repro.circuit.Op
import repro.zset.ZSet
import repro.{SparkSpec, ZSetFixtures}

/** Theorem 3.4 (incremental join) and Proposition 4.7 (incremental distinct)
  * checked against the brute-force D ∘ Q ∘ I on randomized change streams —
  * the heart of the incrementalization algorithm.
  */
class IncrementalOpsSpec extends SparkSpec with ZSetFixtures {

  private val schema2 = StructType(Seq(
    StructField("k", LongType, nullable = false),
    StructField("v", LongType, nullable = false)))
  private val schema1 = StructType(Seq(StructField("k", LongType, nullable = false)))

  private def randDelta2(rnd: Random, vCol: String): ZSet = {
    val n = rnd.nextInt(4)
    if (n == 0) ZSet.empty(spark, StructType(Seq(
      StructField("k", LongType, nullable = false),
      StructField(vCol, LongType, nullable = false))))
    else zs2("k", vCol,
      Seq.fill(n)(((rnd.nextInt(4).toLong, rnd.nextInt(3).toLong), rnd.nextInt(5) - 2L))
        .filter(_._2 != 0L): _*)
  }

  private def randDelta1(rnd: Random): ZSet = {
    val n = rnd.nextInt(4)
    if (n == 0) ZSet.empty(spark, schema1)
    else zs1("k", Seq.fill(n)((rnd.nextInt(5).toLong, rnd.nextInt(5) - 2L)).filter(_._2 != 0L): _*)
  }

  test("Thm 3.4: IncrementalJoin ≡ brute-force (D ∘ ↑⋈ ∘ I) on random change streams") {
    implicit val gA: Group[ZSet] = ZSet.group(spark, StructType(Seq(
      StructField("k", LongType, nullable = false), StructField("va", LongType, nullable = false))))
    implicit val gB: Group[ZSet] = ZSet.group(spark, StructType(Seq(
      StructField("k", LongType, nullable = false), StructField("vb", LongType, nullable = false))))
    implicit val gC: Group[ZSet] = ZSet.group(spark, StructType(Seq(
      StructField("k", LongType, nullable = false),
      StructField("va", LongType, nullable = false),
      StructField("vb", LongType, nullable = false))))

    val rnd = new Random(21)
    val as = Seq.fill(5)(randDelta2(rnd, "va"))
    val bs = Seq.fill(5)(randDelta2(rnd, "vb"))

    val efficient = new IncrementalJoin(Seq("k"))
    val brute = Op.incremental2(ZSetOps.join(Seq("k")))(gA, gB, gC)
    as.zip(bs).foreach { case (da, db) =>
      val e = efficient.step(da, db)
      val b = brute.step(da, db)
      assert(e.zequals(b))
    }
  }

  test("Thm 3.4: IncrementalCartesian ≡ brute-force on random change streams") {
    implicit val gA: Group[ZSet] = ZSet.group(spark, StructType(Seq(StructField("x", LongType, nullable = false))))
    implicit val gB: Group[ZSet] = ZSet.group(spark, StructType(Seq(StructField("y", LongType, nullable = false))))
    implicit val gC: Group[ZSet] = ZSet.group(spark, StructType(Seq(
      StructField("x", LongType, nullable = false), StructField("y", LongType, nullable = false))))

    val rnd = new Random(22)
    def d1(col: String): ZSet = {
      val n = rnd.nextInt(3)
      if (n == 0) ZSet.empty(spark, StructType(Seq(StructField(col, LongType, nullable = false))))
      else ZSet.raw {
        import spark.implicits._
        Seq.fill(n)((rnd.nextInt(3).toLong, rnd.nextInt(5) - 2L)).filter(_._2 != 0).toDF(col, ZSet.W)
      }
    }
    val as = Seq.fill(4)(d1("x"))
    val bs = Seq.fill(4)(d1("y"))
    val efficient = new IncrementalCartesian
    val brute = Op.incremental2(ZSetOps.cartesian)(gA, gB, gC)
    as.zip(bs).foreach { case (da, db) =>
      assert(efficient.step(da, db).zequals(brute.step(da, db)))
    }
  }

  test("incremental join integrated over time equals join of integrals") {
    val da1 = zs2("k", "va", (1L, 10L) -> 1L)
    val da2 = zs2("k", "va", (2L, 20L) -> 1L)
    val db1 = zs2("k", "vb", (1L, 100L) -> 1L)
    val db2 = zs2("k", "vb", (2L, 200L) -> 1L, (1L, 100L) -> -1L)
    val inc = new IncrementalJoin(Seq("k"))
    val out = inc.step(da1, db1).plus(inc.step(da2, db2))
    val full = da1.plus(da2).join(db1.plus(db2), Seq("k"))
    assert(out.zequals(full))
  }

  test("Prop 4.7: IncrementalDistinct ≡ brute-force (D ∘ ↑distinct ∘ I) on random change streams") {
    implicit val g: Group[ZSet] = ZSet.group(spark, schema1)
    val rnd = new Random(23)
    val deltas = Seq.fill(8)(randDelta1(rnd))
    val efficient = new IncrementalDistinct
    val brute = Op.incremental(ZSetOps.distinct)(g, g)
    deltas.foreach { d =>
      assert(efficient.step(d).zequals(brute.step(d)))
    }
  }

  test("Prop 4.7: H emits +1 only on ≤0 → >0 crossings and −1 on >0 → ≤0") {
    val i = zs1("k", 1L -> 1L, 2L -> 2L, 3L -> -1L)
    val d = zs1("k", 1L -> -1L, 2L -> -1L, 3L -> 2L, 4L -> 1L)
    val h = IncrementalDistinct.h(i, d)
    // 1: 1→0 crossing down (−1); 2: 2→1 stays positive (0);
    // 3: −1→1 crossing up (+1); 4: 0→1 crossing up (+1).
    assert(entriesOf(h) == Set((Seq("1"), -1L), (Seq("3"), 1L), (Seq("4"), 1L)))
  }

  test("Prop 4.7: work is bounded by the change — untouched keys produce nothing") {
    val inc = new IncrementalDistinct
    val big = zs1("k", (1L to 50L).map(k => k -> 1L): _*)
    inc.step(big)
    val tiny = zs1("k", 7L -> -1L)
    val out = inc.step(tiny)
    assert(entriesOf(out) == Set((Seq("7"), -1L)))
  }

  test("incremental distinct over a full stream reconstructs distinct of the integral") {
    val rnd = new Random(24)
    val deltas = Seq.fill(6)(randDelta1(rnd))
    val inc = new IncrementalDistinct
    var outAcc = ZSet.empty(spark, schema1)
    var inAcc = ZSet.empty(spark, schema1)
    deltas.foreach { d =>
      outAcc = outAcc.plus(inc.step(d))
      inAcc = inAcc.plus(d)
    }
    assert(outAcc.zequals(inAcc.distinctZ))
  }

  test("Thm 3.3: lifted filter/map/project are their own incremental versions") {
    implicit val g2: Group[ZSet] = ZSet.group(spark, schema2)
    val rnd = new Random(25)
    val deltas = Seq.fill(5)(randDelta2(rnd, "v"))
    val direct = ZSetOps.filter("k % 2 = 0")
    val brute = Op.incremental(ZSetOps.filter("k % 2 = 0"))(g2, g2)
    deltas.foreach { d =>
      assert(direct.step(d).zequals(brute.step(d)))
    }
  }

  test("Thm 3.3 for mapRows (generalized projection)") {
    implicit val g2: Group[ZSet] = ZSet.group(spark, schema2)
    implicit val gOut: Group[ZSet] = ZSet.group(spark, StructType(Seq(StructField("s", LongType, nullable = false))))
    val rnd = new Random(26)
    val deltas = Seq.fill(5)(randDelta2(rnd, "v"))
    val direct = ZSetOps.map("k + v AS s")
    val brute = Op.incremental(ZSetOps.map("k + v AS s"))(g2, gOut)
    deltas.foreach { d =>
      assert(direct.step(d).zequals(brute.step(d)))
    }
  }

  test("explode (flatmap, §7.4) is linear ⇒ its own incremental version") {
    import org.apache.spark.sql.functions._
    def flat(z: ZSet): ZSet =
      ZSet.raw(z.df.select(explode(sequence(lit(0L), org.apache.spark.sql.functions.col("k"))) as "e",
        org.apache.spark.sql.functions.col(ZSet.W)))
    implicit val g1: Group[ZSet] = ZSet.group(spark, schema1)
    implicit val gOut: Group[ZSet] = ZSet.group(spark, StructType(Seq(StructField("e", LongType, nullable = false))))
    val rnd = new Random(27)
    val deltas = Seq.fill(4)(randDelta1(rnd).filterZ(org.apache.spark.sql.functions.col("k") >= 0))
    val direct = Op.lift(flat _)
    val brute = Op.incremental(Op.lift(flat _))(g1, gOut)
    deltas.foreach { d => assert(direct.step(d).zequals(brute.step(d))) }
  }

  // ------------------------------- local and Spark-held changes agree

  /** The other operand's mixed stream: local where the first one is held. */
  private val otherTicks: Int => Boolean = _ % 2 == 0

  private def identicalTicks(name: String, outs: Seq[(String, Seq[ZSet])], brute: Seq[ZSet]): Unit =
    brute.indices.foreach { t =>
      val es = outs.map { case (m, o) => m -> o(t).entries() }
      assert(es.map(_._2).distinct.size == 1, s"$name tick $t: $es")
      assert(outs.head._2(t).zequals(brute(t)), s"$name tick $t: against brute force")
    }

  private val schemaKV = StructType(Seq(StructField("k", DoubleType), StructField("v", LongType, nullable = false)))
  private val schemaKU = StructType(Seq(StructField("k", DoubleType), StructField("u", LongType, nullable = false)))

  test("IncrementalJoin and IncrementalDistinct agree on local, Spark-held and mixed changes") {
    val rnd = new Random(28)
    val as = Seq.fill(5)(randKV(rnd, "k", "v"))
    val bs = Seq.fill(5)(randKV(rnd, "k", "u"))
    val (gA, gB) = (ZSet.group(spark, schemaKV), ZSet.group(spark, schemaKU))
    val gC = ZSet.group(spark, StructType(schemaKV.fields :+ StructField("u", LongType, nullable = false)))
    val bruteJoin = Op.incremental2(ZSetOps.join(Seq("k")))(gA, gB, gC)
    val joinBrute = as.zip(bs).map { case (a, b) => bruteJoin.step(ZSet.raw(a), ZSet.raw(b)) }
    val joins = modes(as).zip(modes(bs, otherTicks)).map { case ((m, da), (_, db)) =>
      val op = new IncrementalJoin(Seq("k"))
      m -> da.zip(db).map { case (a, b) => op.step(a, b) }
    }
    identicalTicks("join", joins, joinBrute)

    val bruteDistinct = Op.incremental(ZSetOps.distinct)(gA, gA)
    val distinctBrute = as.map(a => bruteDistinct.step(ZSet.raw(a)))
    val distincts = modes(as).map { case (m, ds) =>
      val op = new IncrementalDistinct
      m -> ds.map(op.step)
    }
    identicalTicks("distinct", distincts, distinctBrute)
  }

  test("IncrementalCartesian agrees on local, Spark-held and mixed changes") {
    val rnd = new Random(29)
    def xy(df: DataFrame) = df.selectExpr("k AS x", s"${ZSet.W}")
    val as = Seq.fill(4)(xy(randKV(rnd, "k", "v", maxRows = 3)))
    val bs = Seq.fill(4)(randKV(rnd, "k", "v", maxRows = 3).selectExpr("v AS y", ZSet.W))
    val gA = ZSet.group(spark, StructType(Seq(StructField("x", DoubleType))))
    val gB = ZSet.group(spark, StructType(Seq(StructField("y", LongType, nullable = false))))
    val gC = ZSet.group(spark, StructType(gA.zero.dataSchema.fields ++ gB.zero.dataSchema.fields))
    val brute = Op.incremental2(ZSetOps.cartesian)(gA, gB, gC)
    val bruteOut = as.zip(bs).map { case (a, b) => brute.step(ZSet.raw(a), ZSet.raw(b)) }
    val outs = modes(as).zip(modes(bs, otherTicks)).map { case ((m, da), (_, db)) =>
      val op = new IncrementalCartesian
      m -> da.zip(db).map { case (a, b) => op.step(a, b) }
    }
    identicalTicks("cartesian", outs, bruteOut)
  }
}
