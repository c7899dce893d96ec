package repro.zset

import scala.util.Random

import org.apache.spark.sql.functions.col

import repro.{SparkSpec, ZSetFixtures}

/** Randomized (seeded) checks of the Z-set laws the optimizer relies on:
  * Propositions 4.5 and 4.6, distinct/positivity interactions, and the
  * monotonicity statement of Definition 4.4.
  */
class ZSetLawsSpec extends SparkSpec with ZSetFixtures {

  private val Trials = 6

  private def randZ(rnd: Random, positive: Boolean): ZSet = {
    val entries = (0 until (1 + rnd.nextInt(5))).map { _ =>
      val k = rnd.nextInt(6).toLong
      val w = if (positive) 1L + rnd.nextInt(3) else rnd.nextInt(7) - 3L
      k -> w
    }.filter(_._2 != 0L)
    if (entries.isEmpty) zs1("k", 0L -> 1L) else zs1("k", entries: _*)
  }

  private def randZ2(rnd: Random, positive: Boolean): ZSet = {
    val entries = (0 until (1 + rnd.nextInt(5))).map { _ =>
      val k = rnd.nextInt(4).toLong
      val v = rnd.nextInt(3).toLong
      val w = if (positive) 1L + rnd.nextInt(3) else rnd.nextInt(7) - 3L
      (k, v) -> w
    }.filter(_._2 != 0L)
    if (entries.isEmpty) zs2("k", "v", (0L, 0L) -> 1L) else zs2("k", "v", entries: _*)
  }

  test("Prop 4.5: σ(distinct(i)) = distinct(σ(i)) for positive i") {
    val rnd = new Random(1)
    for (_ <- 0 until Trials) {
      val i = randZ(rnd, positive = true)
      val lhs = i.distinctZ.filterZ(col("k") % 2 === 0)
      val rhs = i.filterZ(col("k") % 2 === 0).distinctZ
      assert(lhs.zequals(rhs))
    }
  }

  test("Prop 4.5: ⋈(distinct(a), distinct(b)) = distinct(a ⋈ b) for positive a, b") {
    val rnd = new Random(2)
    for (_ <- 0 until Trials) {
      val a = randZ2(rnd, positive = true)
      val b = randZ(rnd, positive = true)
      val lhs = a.distinctZ.join(b.distinctZ, Seq("k"))
      val rhs = a.join(b, Seq("k")).distinctZ
      assert(lhs.zequals(rhs))
    }
  }

  test("Prop 4.6: distinct(σ(distinct(i))) = distinct(σ(i)) for positive i") {
    val rnd = new Random(3)
    for (_ <- 0 until Trials) {
      val i = randZ(rnd, positive = true)
      val lhs = i.distinctZ.filterZ(col("k") > 1).distinctZ
      val rhs = i.filterZ(col("k") > 1).distinctZ
      assert(lhs.zequals(rhs))
    }
  }

  test("Prop 4.6: distinct(π(distinct(i))) = distinct(π(i)) for positive i") {
    val rnd = new Random(4)
    for (_ <- 0 until Trials) {
      val i = randZ2(rnd, positive = true)
      val lhs = i.distinctZ.project("v").distinctZ
      val rhs = i.project("v").distinctZ
      assert(lhs.zequals(rhs))
    }
  }

  test("Prop 4.6: distinct(distinct(a) + distinct(b)) = distinct(a + b) for positive a, b") {
    val rnd = new Random(5)
    for (_ <- 0 until Trials) {
      val a = randZ(rnd, positive = true)
      val b = randZ(rnd, positive = true)
      val lhs = a.distinctZ.plus(b.distinctZ).distinctZ
      val rhs = a.plus(b).distinctZ
      assert(lhs.zequals(rhs))
    }
  }

  test("counterexample: absorbing distinct through a difference is unsound") {
    // distinct(distinct(x) − b) ≠ distinct(x − b) with x = {v↦3}, b = {v↦1}.
    val x = zs1("k", 7L -> 3L)
    val b = zs1("k", 7L -> 1L)
    val lhs = x.distinctZ.minus(b).distinctZ
    val rhs = x.minus(b).distinctZ
    assert(lhs.isEmpty)
    assert(entriesOf(rhs) == Set((Seq("7"), 1L)))
  }

  test("Def 4.4: integrating a positive stream yields a monotone stream") {
    val rnd = new Random(6)
    val deltas = Seq.fill(5)(randZ(rnd, positive = true))
    var acc = deltas.head
    for (d <- deltas.tail) {
      val next = acc.plus(d)
      assert(next.minus(acc).isPositive) // next ≥ acc
      acc = next
    }
  }

  test("negative weights remove elements through distinct") {
    val i = zs1("k", 1L -> 1L, 2L -> 1L)
    val delta = zs1("k", 2L -> -1L)
    assert(entriesOf(i.plus(delta).distinctZ) == Set((Seq("1"), 1L)))
  }

  // ------------------------------------------- known counts change no result

  /** Random Z-sets over two long columns with the given names, in that
    * order: empty, fully cancelling (compacted and not), compacted and
    * uncompacted non-zero ones.
    */
  private def variants(rnd: Random, names: Seq[String]): Seq[ZSet] = {
    def named(z: ZSet) =
      ZSet.raw(z.df.select(col("k") as names(0), col("v") as names(1), col(ZSet.W)))
    val a = named(randZ2(rnd, positive = false))
    val b = named(randZ2(rnd, positive = true))
    val cancelled = a.plus(a.negate)
    Seq(ZSet.empty(spark, a.dataSchema), cancelled, cancelled.compact(), a.compact(), a.plus(b))
  }

  /** A copy of `z` with the same DataFrame and no known count. */
  private def fresh(z: ZSet): ZSet = ZSet.raw(z.df)

  private def sameResult(label: String, known: ZSet, unknown: ZSet): Unit = {
    assert(known.dataCols == unknown.dataCols, s"$label: column order")
    if (!known.zequals(unknown)) fail(s"$label: ${known.entries()} vs ${unknown.entries()}")
    val n = unknown.entryCount
    assert(known.entryCount == n && known.isEmpty == (n == 0L), s"$label: entry count")
  }

  test("unary operators give the same result with and without a known count") {
    val rnd = new Random(7)
    val unary: Seq[(String, ZSet => ZSet)] = Seq(
      "negate" -> (_.negate),
      "scale" -> (_.scale(-2)),
      "filter" -> (_.filterZ(col("k") > 1)),
      "project" -> (_.project("v")),
      "map" -> (_.mapRows("v AS k", "k + 1 AS v")),
      "distinct" -> (_.distinctZ),
      "consolidate" -> (_.consolidate()),
      "broadcast" -> (_.broadcastHint),
      "compact" -> (_.compact()))
    for ((z, i) <- variants(rnd, Seq("k", "v")).zipWithIndex; (name, op) <- unary)
      sameResult(s"$name of variant $i", op(z), op(fresh(z)))
  }

  test("binary operators give the same result with and without known counts") {
    val rnd = new Random(8)
    val lefts = variants(rnd, Seq("k", "v"))
    val binary: Seq[(String, (ZSet, ZSet) => ZSet, Seq[ZSet])] = Seq(
      ("plus", _.plus(_), variants(rnd, Seq("v", "k"))), // the left's order must win
      ("minus", _.minus(_), variants(rnd, Seq("v", "k"))),
      ("join", _.join(_, Seq("k")), variants(rnd, Seq("k", "u"))),
      ("cartesian", _.cartesian(_), variants(rnd, Seq("x", "y"))))
    for ((name, op, rights) <- binary; (a, i) <- lefts.zipWithIndex; (b, j) <- rights.zipWithIndex)
      sameResult(s"$name of variants $i, $j", op(a, b), op(fresh(a), fresh(b)))
  }

  test("compact().entryCount is the consolidated row count") {
    val rnd = new Random(9)
    for (z <- variants(rnd, Seq("k", "v")) ++ variants(rnd, Seq("v", "k")))
      assert(z.compact().entryCount == fresh(z).consolidate().df.count())
  }
}
