package repro.agg

import scala.jdk.CollectionConverters._
import scala.util.Random

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._

import repro.harness.Changes
import repro.zset.ZSet
import repro.{Oracle, SparkSpec, SynthData, ZSetFixtures}

/** §7.2–7.4: aggregation on Z-sets. Linear aggregates (COUNT/SUM/AVG) are
  * incremental "for free"; MIN falls back to brute force over the stored
  * integral; GROUP BY-AGGREGATE re-evaluates only changed groupings.
  */
class AggregateSpec extends SparkSpec with ZSetFixtures {

  private def kv(entries: ((Long, Long), Long)*): ZSet = zs2("k", "v", entries: _*)

  /** Drive an incremental aggregate over a change stream; at each tick the
    * integrated output view must equal the batch aggregate of the integrated
    * input.
    */
  private def checkIncremental(f: AggFunc, deltas: Seq[ZSet], keys: Seq[String] = Seq("k")): Unit = {
    val inc = new IncrementalGroupAggregate(keys, f)
    var inAcc: Option[ZSet] = None
    var outAcc: Option[ZSet] = None
    deltas.zipWithIndex.foreach { case (d, t) =>
      val o = inc.step(d)
      inAcc = Some(inAcc.map(_.plus(d).compact()).getOrElse(d))
      outAcc = Some(outAcc.map(_.plus(o).compact()).getOrElse(o))
      val expected = GroupAggregate.batch(inAcc.get, keys, f)
      assert(outAcc.get.zequals(expected), s"tick $t (${f.getClass.getSimpleName})")
    }
  }

  // ------------------------------------------------------------------ batch

  test("a_COUNT is the weighted count (paper: sum of multiplicities)") {
    val z = kv((1L, 10L) -> 2L, (1L, 20L) -> 1L, (2L, 5L) -> 3L)
    val out = GroupAggregate.batch(z, Seq("k"), AggFunc.Count())
    assert(entriesOf(out) == Set((Seq("1", "3"), 1L), (Seq("2", "3"), 1L)))
  }

  test("a_SUM is the weighted sum") {
    val z = kv((1L, 10L) -> 2L, (1L, 20L) -> 1L)
    val out = GroupAggregate.batch(z, Seq("k"), AggFunc.Sum("v"))
    assert(entriesOf(out) == Set((Seq("1", "40.000000"), 1L)))
  }

  test("batch GROUP BY COUNT ≡ DuckDB") {
    val z = ZSet.fromSet(SynthData.lineitem(spark, sf = 0.001).select("l_returnflag", "l_orderkey"))
    val out = GroupAggregate.batch(z, Seq("l_returnflag"), AggFunc.Count())
    Oracle.assertEquivalent(out.toSetDF,
      "SELECT l_returnflag, COUNT(*) AS cnt FROM li GROUP BY l_returnflag",
      "li" -> z.toSetDF)
  }

  test("batch GROUP BY SUM ≡ DuckDB") {
    val z = ZSet.fromSet(
      SynthData.lineitem(spark, sf = 0.001).select("l_returnflag", "l_orderkey", "l_quantity"))
    val out = GroupAggregate.batch(z, Seq("l_returnflag"), AggFunc.Sum("l_quantity"))
    Oracle.assertEquivalent(out.toSetDF,
      "SELECT l_returnflag, SUM(l_quantity) AS total FROM li GROUP BY l_returnflag",
      "li" -> z.toSetDF)
  }

  test("batch GROUP BY MIN ≡ DuckDB") {
    val z = ZSet.fromSet(
      SynthData.lineitem(spark, sf = 0.001).select("l_returnflag", "l_orderkey", "l_partkey"))
    val out = GroupAggregate.batch(z, Seq("l_returnflag"), AggFunc.Min("l_partkey"))
    Oracle.assertEquivalent(out.toSetDF,
      "SELECT l_returnflag, MIN(l_partkey) AS mn FROM li GROUP BY l_returnflag",
      "li" -> z.toSetDF)
  }

  // ------------------------------------------------------------ incremental

  test("incremental COUNT per group (linear ⇒ exact)") {
    checkIncremental(AggFunc.Count(), Seq(
      kv((1L, 10L) -> 1L, (2L, 5L) -> 1L),
      kv((1L, 20L) -> 1L),
      kv((1L, 10L) -> -1L),
      kv((2L, 5L) -> -1L))) // group 2 vanishes
  }

  test("incremental SUM per group with deletions") {
    checkIncremental(AggFunc.Sum("v"), Seq(
      kv((1L, 10L) -> 1L, (1L, 20L) -> 1L),
      kv((1L, 10L) -> -1L, (2L, 7L) -> 2L),
      kv((2L, 7L) -> -2L)))
  }

  test("incremental AVG per group (SUM/COUNT pair + division at output)") {
    checkIncremental(AggFunc.Avg("v"), Seq(
      kv((1L, 10L) -> 1L, (1L, 30L) -> 1L),
      kv((1L, 20L) -> 1L),
      kv((1L, 30L) -> -1L)))
  }

  test("incremental MIN per group: deletion of the minimum (needs the full set — brute force)") {
    checkIncremental(AggFunc.Min("v"), Seq(
      kv((1L, 10L) -> 1L, (1L, 20L) -> 1L),
      kv((1L, 5L) -> 1L),
      kv((1L, 5L) -> -1L),   // min returns to 10
      kv((1L, 10L) -> -1L))) // min becomes 20
  }

  test("incremental aggregates on a randomized change stream (all four functions)") {
    val rnd = new Random(51)
    val base = kv((0 until 30).map { i =>
      (rnd.nextInt(4).toLong, rnd.nextInt(50).toLong + 1) -> 1L
    }.distinct: _*)
    val deltas = Changes.stream(base, ticks = 4, initialFrac = 0.5, deleteFrac = 0.3, seed = 5)
    checkIncremental(AggFunc.Count(), deltas)
    checkIncremental(AggFunc.Sum("v"), deltas)
    checkIncremental(AggFunc.Min("v"), deltas)
  }

  test("grouped and global SUM and MIN over 20 ticks: groups empty and return, across a consolidation") {
    // Group 2 empties at ticks 1 and 10 and returns at ticks 5 and 16; every
    // group, so also the one group of `keys = Nil`, empties at tick 18, and
    // group 1 returns at tick 19. The 16th tick (index 15) consolidates the
    // operators' state.
    val deltas = Seq(
      kv((1L, 10L) -> 1L, (2L, 5L) -> 1L, (3L, 7L) -> 1L),
      kv((2L, 5L) -> -1L),
      kv((1L, 4L) -> 1L),
      kv((3L, 9L) -> 1L),
      kv((1L, 4L) -> -1L),
      kv((2L, 8L) -> 1L),
      kv((3L, 7L) -> -1L),
      kv((1L, 20L) -> 1L),
      kv((2L, 8L) -> -1L, (2L, 3L) -> 1L),
      kv((3L, 1L) -> 1L),
      kv((2L, 3L) -> -1L),
      kv((1L, 10L) -> -1L),
      kv((3L, 9L) -> -1L),
      kv((1L, 6L) -> 1L),
      kv((3L, 2L) -> 1L),
      kv((1L, 20L) -> -1L),
      kv((2L, 11L) -> 1L),
      kv((1L, 6L) -> -1L, (2L, 12L) -> 1L),
      kv((2L, 11L) -> -1L, (2L, 12L) -> -1L, (3L, 1L) -> -1L, (3L, 2L) -> -1L),
      kv((1L, 7L) -> 1L))
    for (keys <- Seq(Seq("k"), Nil)) {
      checkIncremental(AggFunc.Sum("v"), deltas, keys)
      checkIncremental(AggFunc.Min("v"), deltas, keys)
    }
  }

  test("MIN keeps only its keys and column: equal (key, value) rows, null values, a group emptied and refilled") {
    // Rows (k, v, o) with nullable v and a column o MIN does not read.
    val schema = StructType(Seq(StructField("k", LongType), StructField("v", LongType),
      StructField("o", LongType), StructField(ZSet.W, LongType)))
    def kvo(rows: (Long, java.lang.Long, Long, Long)*): DataFrame =
      spark.createDataFrame(rows.map { case (k, v, o, w) => Row(k, v, o, w) }.asJava, schema)
    val changes = Seq(
      // Group 1: two rows at (1, 10) that differ in o; group 2: a null v.
      kvo((1L, 10L, 1L, 1L), (1L, 10L, 2L, 1L), (1L, 20L, 3L, 1L), (2L, null, 4L, 1L)),
      // One (1, 10) row goes: MIN stays 10.
      kvo((1L, 10L, 2L, -1L)),
      // Group 2 gets a value beside its null, then empties.
      kvo((2L, 7L, 5L, 1L)),
      kvo((2L, null, 4L, -1L), (2L, 7L, 5L, -1L)),
      // The other (1, 10) row goes: MIN becomes 20; group 2 returns with a null.
      kvo((1L, 10L, 1L, -1L), (2L, null, 6L, 1L)),
      kvo((2L, 3L, 7L, 1L)))
    for ((mode, ds) <- modes(changes)) {
      val op = new IncrementalGroupAggregate(Seq("k"), AggFunc.Min("v"))
      var inAcc = ZSet.empty(spark, ds.head.dataSchema)
      var outAcc = ZSet.empty(spark, op.step(ZSet.empty(spark, ds.head.dataSchema)).dataSchema)
      for ((d, t) <- ds.zipWithIndex) {
        outAcc = outAcc.plus(op.step(d)).compact()
        inAcc = inAcc.plus(d).compact()
        assert(outAcc.zequals(GroupAggregate.batch(inAcc, Seq("k"), AggFunc.Min("v"))), s"$mode tick $t")
        // The state holds (k, v): the two (1, 10) rows are one entry.
        if (t == 0) assert(op.stateEntries.contains(3L), s"$mode: ${op.stateEntries}")
      }
    }
  }

  test("incremental MIN of a struct field, beside a field it does not read") {
    val schema = StructType(Seq(StructField("k", LongType), StructField("v", LongType),
      StructField("o", LongType), StructField(ZSet.W, LongType)))
    def kso(rows: (Long, Long, Long, Long)*): ZSet = ZSet.raw(spark
      .createDataFrame(rows.map { case (k, v, o, w) => Row(k, v, o, w) }.asJava, schema)
      .selectExpr("k", "named_struct('v', v, 'o', o) AS s", ZSet.W))
    checkIncremental(AggFunc.Min("s.v"), Seq(
      kso((1L, 10L, 1L, 1L), (1L, 20L, 2L, 1L), (2L, 5L, 3L, 1L)),
      kso((1L, 10L, 1L, -1L)),
      kso((2L, 4L, 4L, 1L), (1L, 10L, 5L, 1L))))
  }

  test("untouched groups emit no output (§7.4: only changed groupings re-evaluated)") {
    val inc = new IncrementalGroupAggregate(Seq("k"), AggFunc.Count())
    inc.step(kv((1L, 1L) -> 1L, (2L, 1L) -> 1L, (3L, 1L) -> 1L))
    val out = inc.step(kv((2L, 9L) -> 1L))
    // Only group 2 appears (retract cnt=1, assert cnt=2).
    assert(entriesOf(out) == Set((Seq("2", "1"), -1L), (Seq("2", "2"), 1L)))
  }

  // ------------------------------------------- global (GROUP BY (), keys Nil)

  test("global SUM via makeset (§7.2 circuit): retract/assert singleton") {
    val inc = new IncrementalGroupAggregate(Nil, AggFunc.Sum("v", "s"))
    val o1 = inc.step(kv((1L, 10L) -> 1L, (2L, 5L) -> 2L).project("v").mapRows("v"))
    assert(entriesOf(o1) == Set((Seq("20.000000"), 1L)))
    val o2 = inc.step(kv((3L, 7L) -> 1L).project("v").mapRows("v"))
    assert(entriesOf(o2) == Set((Seq("20.000000"), -1L), (Seq("27.000000"), 1L)))
  }

  test("global COUNT tracks insertions and deletions") {
    val inc = new IncrementalGroupAggregate(Nil, AggFunc.Count("c"))
    val o1 = inc.step(zs1("v", 10L -> 2L, 20L -> 1L))
    assert(entriesOf(o1) == Set((Seq("3"), 1L)))
    val o2 = inc.step(zs1("v", 10L -> -1L))
    assert(entriesOf(o2) == Set((Seq("3"), -1L), (Seq("2"), 1L)))
  }

  test("global MIN is brute force but correct under deletions") {
    val inc = new IncrementalGroupAggregate(Nil, AggFunc.Min("v", "m"))
    inc.step(zs1("v", 10L -> 1L, 20L -> 1L))
    val o2 = inc.step(zs1("v", 5L -> 1L))
    assert(entriesOf(o2) == Set((Seq("10"), -1L), (Seq("5"), 1L)))
    val o3 = inc.step(zs1("v", 5L -> -1L))
    assert(entriesOf(o3) == Set((Seq("5"), -1L), (Seq("10"), 1L)))
  }

  test("global AVG = SUM/COUNT (§7.2's composed circuit)") {
    val inc = new IncrementalGroupAggregate(Nil, AggFunc.Avg("v", "a"))
    val o1 = inc.step(zs1("v", 10L -> 1L, 20L -> 1L))
    assert(entriesOf(o1) == Set((Seq("15.000000"), 1L)))
    val o2 = inc.step(zs1("v", 30L -> 1L))
    assert(entriesOf(o2) == Set((Seq("15.000000"), -1L), (Seq("20.000000"), 1L)))
  }

  // ------------------------------- local and Spark-held changes agree

  test("COUNT, SUM, AVG and MIN, keyed and global, agree on local, Spark-held and mixed changes") {
    // A positive change stream over keys from `edgeKeys`: each tick inserts
    // rows (sometimes one twice), deletes live ones, and inserts and deletes
    // one row in the same change.
    val rnd = new Random(52)
    val live = scala.collection.mutable.ArrayBuffer.empty[(java.lang.Double, Long)]
    val changes = Seq.fill(5) {
      def fresh() = (edgeKeys(rnd.nextInt(edgeKeys.size)), rnd.nextInt(20).toLong)
      val ins = Seq.fill(1 + rnd.nextInt(3))(fresh())
      val dels = Seq.fill(math.min(live.size, rnd.nextInt(3)))(live.remove(rnd.nextInt(live.size)))
      val twice = if (rnd.nextBoolean()) ins.take(1) else Nil
      val cancel = fresh()
      live ++= ins ++ twice
      dfKV("k", "v", (ins ++ twice).map { case (k, v) => (k, v, 1L) } ++
        dels.map { case (k, v) => (k, v, -1L) } ++ Seq((cancel._1, cancel._2, 1L), (cancel._1, cancel._2, -1L)))
    }
    val inputs = modes(changes)
    val local = inputs.head._2
    for (f <- Seq(AggFunc.Count(), AggFunc.Sum("v"), AggFunc.Avg("v"), AggFunc.Min("v")); keys <- Seq(Seq("k"), Nil)) {
      val outs = inputs.map { case (m, ds) =>
        val op = new IncrementalGroupAggregate(keys, f)
        m -> ds.map(op.step)
      }
      var inAcc = ZSet.empty(spark, local.head.dataSchema)
      var outAcc = ZSet.empty(spark, outs.head._2.head.dataSchema)
      for (t <- changes.indices) {
        val label = s"$f by ${keys.mkString(",")} tick $t"
        val es = outs.map { case (m, o) => m -> o(t).entries() }
        assert(es.map(_._2).distinct.size == 1, s"$label: $es")
        inAcc = inAcc.plus(local(t))
        outAcc = outAcc.plus(outs.head._2(t))
        assert(outAcc.zequals(GroupAggregate.batch(inAcc, keys, f)), s"$label: against batch")
      }
    }
  }
}
