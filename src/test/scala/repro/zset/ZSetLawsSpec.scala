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

  // ------------------------------- local and Spark-held operands agree

  /** Every result has the same consolidated entries; `label` names the case. */
  private def identical(label: String, results: Seq[ZSet]): Unit = {
    val es = results.map(_.entries())
    assert(es.distinct.size == 1, s"$label: ${es.mkString(" vs ")}")
  }

  test("Z-set operators give identical results on local, Spark-held and mixed operands") {
    val rnd = new Random(10)
    val unary: Seq[(String, ZSet => ZSet)] = Seq(
      "negate" -> (_.negate),
      "consolidate" -> (_.consolidate()),
      "distinct" -> (_.distinctZ),
      "filter" -> (_.filterZ(col("k") > 0 || col("k").isNull)),
      "map" -> (_.mapRows("k * 2 AS k", "v")),
      "project" -> (_.project("k")),
      "compact" -> (_.compact()))
    val binary: Seq[(String, (ZSet, ZSet) => ZSet)] = Seq(
      "plus" -> (_.plus(_)),
      "minus" -> (_.minus(_)),
      "join" -> ((a, c) => a.join(c.mapRows("k", "v AS u"), Seq("k"))),
      "cartesian" -> ((a, c) => a.cartesian(c.mapRows("k AS x", "v AS y"))))
    for (trial <- 0 until Trials) {
      val (a, ah) = localAndHeld(randKV(rnd, "k", "v"))
      val (b, bh) = localAndHeld(randKV(rnd, "k", "v"))
      for ((name, op) <- unary) {
        assert(op(a).isLocal, s"$name of a local operand is local")
        identical(s"$name, trial $trial", Seq(op(a), op(ah)))
      }
      for ((name, op) <- binary) {
        assert(op(a, b).isLocal, s"$name of local operands is local")
        identical(s"$name, trial $trial", Seq(op(a, b), op(ah, bh), op(a, bh), op(ah, b)))
      }
      // A Spark-held operand of at most LocalLimit entries compacts to a local one.
      assert(ah.compact().isLocal, s"compact of a held operand is local, trial $trial")
      // The bounded probe of Spark-held state (an `isin` filter) matches
      // null, −0.0 and NaN keys as the probe of local state does.
      val probes = Seq(a, ah).map(s => Trace.bounded(s, b, Seq("k")))
      assert(probes.forall(_.exists(_.isLocal)), s"bounded probes, trial $trial")
      identical(s"bounded probe, trial $trial", probes.map(_.get))
      val equal = Seq(a.zequals(b), ah.zequals(bh), a.zequals(bh), ah.zequals(b))
      assert(equal.distinct.size == 1, s"zequals, trial $trial")
      assert(a.zequals(ah) && ah.zequals(a) && a.minus(b).plus(b).zequals(ah))
    }
  }

  test("null keys never match in a join and group together; −0.0 is 0.0 and NaN is NaN") {
    val rows = Seq[(java.lang.Double, Long, Long)](
      (null, 1L, 1L), (null, 1L, 2L), (-0.0, 1L, 1L), (0.0, 1L, 1L), (Double.NaN, 1L, 1L), (Double.NaN, 1L, 1L))
    val (a, ah) = localAndHeld(dfKV("k", "v", rows))
    val (b, bh) = localAndHeld(dfKV("k", "u", rows))
    val expected = Set((Seq("∅", "1"), 3L), (Seq("0.000000", "1"), 2L), (Seq("NaN", "1"), 2L))
    assert(entriesOf(a) == expected && entriesOf(ah) == expected)
    val joined = Set((Seq("0.000000", "1", "1"), 4L), (Seq("NaN", "1", "1"), 4L))
    for ((x, y) <- Seq(a -> b, ah -> bh, a -> bh, ah -> b))
      assert(entriesOf(x.join(y, Seq("k"))) == joined)
    // A probe matches keys as they group: the bounded probe by a local `by`,
    // and the broadcast semi-join a Spark-held `by` falls back to.
    val nan = (e: (Seq[String], Long)) => e._1.head == "NaN"
    for ((keys, matched) <- Seq(Seq[java.lang.Double](null, -0.0) -> expected.filterNot(nan),
        Seq[java.lang.Double](Double.NaN) -> expected.filter(nan))) {
      val (by, byH) = localAndHeld(dfKV("k", "u", keys.map((_, 1L, 1L))))
      val probes = Seq(Trace.probe(a, by, Seq("k")), Trace.probe(ah, by, Seq("k")), Trace.probe(a, byH, Seq("k")),
        Trace.probe(ah, byH, Seq("k")), Trace.semiJoin(a, by, Seq("k")), Trace.semiJoin(ah, byH, Seq("k")))
      assert(probes.map(entriesOf).forall(_ == matched), s"probes by $keys")
    }
  }

  test("weight overflow in a join and in a consolidation throws on both representations") {
    def overflows(body: => Any): Boolean =
      try { body; false }
      catch { case e: Exception =>
        Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).exists(_.isInstanceOf[ArithmeticException])
      }
    val (big, bigH) = localAndHeld(dfKV("k", "v", Seq((1.0, 1L, Long.MaxValue))))
    val (two, twoH) = localAndHeld(dfKV("k", "u", Seq((1.0, 1L, 2L))))
    for ((x, y) <- Seq(big -> two, bigH -> twoH, big -> twoH, bigH -> two))
      assert(overflows(x.join(y, Seq("k")).entries()), "join")
    val past = dfKV("k", "v", Seq((1.0, 1L, Long.MaxValue), (1.0, 1L, 1L)))
    assert(overflows(ZSet.raw(past).consolidate().entries()), "local consolidation")
    assert(overflows(ZSet.raw(past.localCheckpoint()).consolidate().entries()), "Spark consolidation")
  }
}
