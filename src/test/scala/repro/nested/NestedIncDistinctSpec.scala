package repro.nested

import scala.util.Random

import org.apache.spark.sql.types._

import repro.algebra.Group
import repro.zset.ZSet
import repro.{SparkSpec, ZSetFixtures}

/** The doubly-incremental distinct `(↑(↑distinct)^Δ)^Δ` (Figure 2's largest
  * sub-circuit) against the brute-force D ∘ ↑D ∘ ↑↑distinct ∘ ↑I ∘ I.
  */
class NestedIncDistinctSpec extends SparkSpec with ZSetFixtures {

  private val schema = StructType(Seq(StructField("k", LongType, nullable = false)))
  private implicit lazy val g: Group[ZSet] = ZSet.group(spark, schema)

  /** Up to two random entries over the keys 0–3, or, `withNull`, over a
    * nullable `k` whose keys 0 and 1 become null.
    */
  private def randDelta(rnd: Random, withNull: Boolean = false): ZSet = {
    val s = spark
    import s.implicits._
    val n = rnd.nextInt(3)
    val es = Seq.fill(n)((rnd.nextInt(4).toLong, rnd.nextInt(5) - 2L)).filter(_._2 != 0L)
    if (n == 0) ZSet.empty(spark, schema)
    else if (!withNull) zs1("k", es: _*)
    else ZSet.raw(es.map { case (k, w) => (Option(k).filter(_ > 1), w) }.toDF("k", ZSet.W))
  }

  /** Runs the operator on `matrix` and the brute force on it with every row
    * padded by zeros to the longest one, asserting every cell the operator
    * computes equal, and returns the operator's cells.
    */
  private def runBoth(matrix: Seq[Seq[ZSet]]): Seq[Seq[ZSet]] = {
    val opt = new NestedIncrementalDistinct
    val brute = new NestedIncrementalUnaryBrute[ZSet, ZSet](_.distinctZ)
    val width = matrix.map(_.size).max
    matrix.zipWithIndex.map { case (row, t1) =>
      opt.newOuterTick(); brute.newOuterTick()
      val bs = row.padTo(width, g.zero).map(brute.step)
      row.zip(bs).zipWithIndex.map { case ((d, b), t2) =>
        val o = opt.step(d)
        assert(o.zequals(b), s"mismatch at ($t1, $t2): opt=${o.entries()} brute=${b.entries()}")
        o
      }
    }
  }

  test("≡ brute force on randomized rectangular nested change streams") {
    val rnd = new Random(41)
    for (withNull <- Seq(false, true); trial <- 0 until 3) {
      val rows = 2 + rnd.nextInt(2)
      val cols = 2 + rnd.nextInt(2)
      runBoth(Seq.fill(rows)(Seq.fill(cols)(randDelta(rnd, withNull))))
    }
    // Ragged: each row 1–4 long, so a row may be shorter than an earlier one;
    // runBoth compares with the zero-padded brute force.
    for (withNull <- Seq(false, true); trial <- 0 until 12)
      runBoth(Seq.fill(3)(Seq.fill(1 + rnd.nextInt(4))(randDelta(rnd, withNull))))
    // Rows that never get shorter, the fixpoint's shape, agree with their
    // zero-padded rectangular run on every cell they compute.
    for (withNull <- Seq(false, true); trial <- 0 until 2) {
      val lengths = Seq.fill(3)(1 + rnd.nextInt(4)).sorted
      val ragged = lengths.map(n => Seq.fill(n)(randDelta(rnd, withNull)))
      val padded = runBoth(ragged.map(_.padTo(lengths.max, ZSet.empty(spark, schema))))
      for ((row, t1) <- runBoth(ragged).zipWithIndex; (o, t2) <- row.zipWithIndex)
        assert(o.zequals(padded(t1)(t2)), s"ragged ≠ padded at ($t1, $t2)")
    }
  }

  test("retraction at a later iteration when a fact's derivation moves earlier") {
    // Outer tick 0: fact 7 first appears at inner step 1.
    // Outer tick 1: fact 7 already appears at inner step 0 — the (t₂=1)
    // occurrence must be retracted at (1,1) and asserted at (1,0).
    val e = ZSet.empty(spark, schema)
    val f7 = zs1("k", 7L -> 1L)
    val opt = new NestedIncrementalDistinct
    opt.newOuterTick()
    val o00 = opt.step(e)
    val o01 = opt.step(f7)
    assert(o00.isEmpty)
    assert(entriesOf(o01) == Set((Seq("7"), 1L)))
    opt.newOuterTick()
    val o10 = opt.step(f7)
    val o11 = opt.step(e)
    assert(entriesOf(o10) == Set((Seq("7"), 1L)))
    assert(entriesOf(o11) == Set((Seq("7"), -1L)))
  }

  test("cell (1, 1) retracts a key that drops to zero and cancels a key that stays positive") {
    // Corners at (1, 1): c₁₀ = c₀₀ = {1..20}, c₁₁ = c₁₀ + {3: −1}, c₀₁ = c₀₀ + {5: +1}.
    val e = ZSet.empty(spark, schema)
    val out = runBoth(Seq(
      Seq(zs1("k", (1L to 20L).map(k => k -> 1L): _*), zs1("k", 5L -> 1L)),
      Seq(e, zs1("k", 3L -> -1L, 5L -> -1L))))
    // key 3: f(0)−f(1) − (f(1)−f(1)) = −1; key 5: f(1)−f(1) − (f(2)−f(1)) = 0.
    assert(entriesOf(out(1)(1)) == Set((Seq("3"), -1L)))
  }

  test("integrating the nested output over both times reconstructs distinct of the total") {
    val rnd = new Random(43)
    val e = ZSet.empty(spark, schema)
    // Rows 2, 1 and 3 long. The cells row 1 skips are zero in the zero-padded
    // run (fact 5 of cell (0, 1) meets no change of row 1), so the computed
    // cells still integrate to the total.
    val ragged = Seq(
      Seq(zs1("k", 1L -> 1L), zs1("k", 5L -> 1L)),
      Seq(zs1("k", 2L -> 1L)),
      Seq(zs1("k", 1L -> -1L), e, zs1("k", 3L -> 1L)))
    assert(runBoth(ragged.map(_.padTo(3, e)))(1).drop(1).forall(_.isEmpty), "fixture: row 1's padded cells")
    for (matrix <- Seq(Seq.fill(3)(Seq.fill(2)(randDelta(rnd))), ragged)) {
      val opt = new NestedIncrementalDistinct
      var lastRowOut = ZSet.empty(spark, schema)
      var inTotalLastRow = ZSet.empty(spark, schema)
      var inCum = ZSet.empty(spark, schema)
      matrix.foreach { row =>
        opt.newOuterTick()
        var rowOut = ZSet.empty(spark, schema)
        row.foreach { d =>
          rowOut = rowOut.plus(opt.step(d))
          inCum = inCum.plus(d)
        }
        lastRowOut = lastRowOut.plus(rowOut) // ∫ over inner, I over outer
        inTotalLastRow = inCum
      }
      // ↑∫ then I over outer of the output = distinct of the fully-integrated input.
      assert(lastRowOut.zequals(inTotalLastRow.distinctZ))
    }
  }
}
