package repro.zset

import scala.util.Random

import org.apache.spark.sql.functions.col

import repro.{SparkSpec, ZSetFixtures}
import repro.agg.{AggFunc, GroupAggregate, IncrementalGroupAggregate}
import repro.core.{IncrementalDistinct, IncrementalJoin}
import repro.metrics.JobCounter
import repro.relational.BatchEval
import repro.relational.ZExpr.{ZDistinct, ZInput, ZJoin, ZMap}

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

  test("incremental operators over indexed traces equal batch evaluation on every tick") {
    // Spark-held bulk loads of more than LocalLimit entries (H), then ticks
    // that are local (L, deleting an absent row too), Spark-held (H, more
    // than LocalLimit entries) or empty (E). The first local tick after a
    // Spark-held one builds each probed trace's index by one job; a local
    // tick after a local one finds the indexes maintained and launches no
    // job, except at the 16th append, which consolidates.
    val rnd = new Random(11)
    val modes = "HLLELHLLELLHLLLLLL"
    def change(v: String, mode: Char, t: Int): ZSet = mode match {
      case 'E' => ZSet.empty(spark, zs2("k", v).dataSchema)
      case 'L' => zs2("k", v, Seq.fill(4)((rnd.nextInt(1300).toLong, rnd.nextInt(3).toLong) ->
        (if (rnd.nextBoolean()) 1L else -1L)) :+ ((5000L + t, 0L) -> -1L): _*)
      case _ =>
        val (from, n) = if (t == 0) (0, 2400) else (rnd.nextInt(600), ZSet.LocalLimit + 100)
        held(zs2("k", v, (from until from + n).map(k => (k % 1200L, rnd.nextInt(3).toLong) -> 1L): _*))
    }
    val join = new IncrementalJoin(Seq("k"))
    val distinct = new IncrementalDistinct
    val (sum, min) = (new IncrementalGroupAggregate(Seq("k"), AggFunc.Sum("v")),
      new IncrementalGroupAggregate(Seq("k"), AggFunc.Min("v")))
    val circuits = Seq(ZJoin(ZInput("a"), ZInput("b"), Seq("k")), ZDistinct(ZMap(ZInput("a"), Seq("k"))))
    var (snapA, snapB) = (ZSet.empty(spark, zs2("k", "v").dataSchema), ZSet.empty(spark, zs2("k", "u").dataSchema))
    var outs = Seq.empty[ZSet]
    var appends = 0
    for ((mode, t) <- modes.zipWithIndex) {
      val (da, db) = (change("v", mode, t), change("u", mode, t))
      val (out, jobs) = Seq[() => ZSet](() => join.step(da, db), () => distinct.step(da.project("k")),
        () => sum.step(da), () => min.step(da)).map(step => JobCounter.count(spark)(step())).unzip
      snapA = snapA.plus(da).compact(); snapB = snapB.plus(db).compact()
      outs = if (outs.isEmpty) out else outs.zip(out).map { case (o, d) => o.plus(d).compact() }
      val inputs = Map("a" -> snapA, "b" -> snapB)
      val expected = circuits.map(BatchEval.eval(_, inputs)) ++
        Seq(AggFunc.Sum("v"), AggFunc.Min("v")).map(GroupAggregate.batch(snapA, Seq("k"), _))
      for ((name, (o, e)) <- Seq("join", "distinct", "SUM", "MIN").zip(outs.zip(expected)))
        assert(o.zequals(e), s"$name, tick $t ($mode): ${o.entries()} vs ${e.entries()}")
      if (mode != 'E') appends += 1
      val previous = modes.take(t).filter(_ != 'E').lastOption
      if (mode == 'L' && appends % 16 != 0) {
        // One build per probed trace after a Spark-held tick, none after a local one.
        val builds = if (previous.contains('L')) Seq(0, 0, 0, 0) else Seq(2, 1, 1, 1)
        assert(jobs.map(_.all) == builds, s"jobs at tick $t after $previous")
      }
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
    // the broadcast semi-join a Spark-held `by` falls back to, and the
    // lookup in the index of a trace whose Spark-held state also holds more
    // than LocalLimit tuples that match no probe.
    val filler = (1 to ZSet.LocalLimit).map(i => (Double.box(1000.0 + i), 1L, 1L))
    val trace = new Trace
    trace.append(ZSet.raw(dfKV("k", "v", rows ++ filler).localCheckpoint()).compact())
    assert(!trace.value.isLocal, "fixture: the trace's state is Spark-held")
    val nan = (e: (Seq[String], Long)) => e._1.head == "NaN"
    for ((keys, other, matched) <- Seq(
        (Seq[java.lang.Double](null, -0.0), Double.box(Double.NaN), expected.filterNot(nan)),
        (Seq[java.lang.Double](Double.NaN), Double.box(0.0), expected.filter(nan)));
        cols <- Seq(Seq("k"), Seq("k", "v"))) {
      // A two-column probe also carries a tuple that matches on `k` alone.
      val extra = if (cols.size == 2) Seq((other, 2L, 1L)) else Nil
      val (by, byH) = localAndHeld(dfKV("k", "v", keys.map((_, 1L, 1L)) ++ extra))
      trace.probe(by, cols) // builds the index, or re-keys it for `cols`
      val (indexed, jobs) = JobCounter.count(spark)(trace.probe(by, cols))
      assert(indexed.isLocal && jobs.all == 0, s"index probe by $keys on $cols: $jobs")
      val probes = Seq(Trace.probe(a, by, cols), Trace.probe(ah, by, cols), Trace.probe(a, byH, cols),
        Trace.probe(ah, byH, cols), Trace.semiJoin(a, by, cols), Trace.semiJoin(ah, byH, cols),
        indexed, trace.probe(byH, cols))
      assert(probes.map(entriesOf).forall(_ == matched), s"probes by $keys on $cols")
    }
  }

  test("an indexed trace consolidates from its index in one job, to compact()'s state, null, −0.0, 0.0 and NaN included") {
    // A Spark-held load of more than LocalLimit tuples, indexed by a local
    // probe, then 15 local appends of null, −0.0, 0.0 and NaN keys that add,
    // merge and cancel tuples: the 16th append consolidates.
    val rnd = new Random(12)
    val filler = (1 to ZSet.LocalLimit).map(i => (Double.box(1000.0 + i), i.toLong, 1L))
    val load = ZSet.raw(dfKV("k", "v", filler ++ edgeKeys.map((_, 1L, 1L))).localCheckpoint()).compact()
    val deltas = Seq.fill(15)(ZSet.raw(dfKV("k", "v", Seq.fill(4)(
      (edgeKeys(rnd.nextInt(edgeKeys.size)), rnd.nextInt(2).toLong, Seq(-2L, -1L, 1L, 2L)(rnd.nextInt(4)))))))
    assert(!load.isLocal && deltas.forall(d => d.isLocal && !d.isKnownZero), "fixture: representations")
    val trace = new Trace
    trace.append(load)
    trace.probe(ZSet.raw(dfKV("k", "v", Seq((1.5, 1L, 1L)))), Seq("k")) // builds the index
    deltas.init.foreach(trace.append)
    val (_, jobs) = JobCounter.count(spark)(trace.append(deltas.last))
    val compacted = deltas.foldLeft(load)(_.plus(_)).compact()
    val (bound, boundJobs) = JobCounter.count(spark)(trace.entryBound)
    assert(jobs.all == 1 && boundJobs.all == 0, s"consolidation $jobs, bound $boundJobs")
    assert(!trace.value.isLocal && bound.contains(compacted.entryCount))
    assert(trace.value.entries() == compacted.entries())
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
