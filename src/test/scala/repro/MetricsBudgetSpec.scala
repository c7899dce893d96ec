package repro

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._

import repro.agg.{AggFunc, GroupAggregate, IncrementalGroupAggregate}
import repro.core.{IncrementalDistinct, IncrementalJoin}
import repro.metrics.{JobCount, JobCounter}
import repro.nested.{IncrementalTransitiveClosure, NestedIncrementalDistinct}
import repro.harness.experiments.E1RelationalIvm
import repro.recursive.TransitiveClosure
import repro.relational.{DistinctOptimizer, Incrementalizer, IncrementalRunner, Table1}
import repro.streaming.StreamRelationJoin
import repro.zset.{Trace, ZSet}

/** Spark-job budgets: work on empty and already-consolidated Z-sets, and a
  * bulk load of compacted inputs through `step`, launch no job; a
  * single-edge update of the incremental transitive closure, as well as a
  * small-delta tick and an all-empty tick of the stateful relational
  * operators and of the relation-to-stream join over Spark-held state, stay
  * under ceilings, and a small-delta tick with a driver-local change
  * launches no broadcast exchange, nor does a single-edge update over
  * Spark-held outer columns or a Spark-held change against local state. A single-edge update also launches fewer
  * jobs than recomputing the closure. State of at most `LocalLimit` entries
  * is local once compacted, and a tick over it launches no job. The
  * operators' state entries, known without a job, stay under ceilings too.
  * Ceilings are the counts measured when they were set; they may only ever
  * be lowered.
  */
class MetricsBudgetSpec extends SparkSpec with ZSetFixtures {
  import MetricsBudgetSpec._

  /** The Spark jobs `body` launched, broadcast jobs included. */
  private def jobsByKind[A](body: => A): (A, JobCount) = JobCounter.count(spark)(body)

  /** The number of Spark jobs `body` launched (see [[jobsByKind]]). */
  private def jobsOf[A](body: => A): (A, Int) = {
    val (out, jobs) = jobsByKind(body)
    (out, jobs.all)
  }

  private val kv = StructType(Seq(StructField("k", LongType), StructField("v", LongType)))

  /** 4000 rows over 2000 keys, with value column `v`, held by Spark as a
    * bulk load is: more than `LocalLimit` entries, also projected to `k`, so
    * an operator's state stays Spark-held when compacted, while a probe by a
    * few keys matches two rows each.
    */
  private def bulk(v: String): ZSet = held(zs2("k", v, (0L until 4000L).map(i => (i % 2000, i) -> 1L): _*))

  /** 100 rows over 20 keys, with value column `v`, checkpointed by Spark: at
    * most `LocalLimit` entries, so an operator's first `compact()` makes its
    * state local.
    */
  private def small(v: String): ZSet = held(zs2("k", v, (0L until 100L).map(i => (i % 20, i) -> 1L): _*))

  /** After `load`, the jobs of two small-delta ticks and of one all-empty
    * tick, each output materialized the way a consumer of the view would.
    */
  private def tickJobs(name: String)(load: => ZSet, small: => ZSet, again: => ZSet,
                                     empty: => ZSet): (JobCount, JobCount, JobCount) = {
    load.compact()
    val (_, s) = jobsByKind(small.compact())
    val (_, a) = jobsByKind(again.compact())
    val (_, e) = jobsByKind(empty.compact())
    info(s"$name jobs: small-delta ticks $s and $a, all-empty tick $e")
    (s, a, e)
  }

  test("known-zero plus, mapRows, join, compact, isEmpty and entryCount launch no job") {
    val zero = ZSet.empty(spark, kv)
    val a = zs2("k", "u", (1L, 10L) -> 1L, (2L, 20L) -> -1L)
    val (_, jobs) = jobsOf {
      val sum = zero.plus(zero.negate)
      assert(sum.isEmpty && sum.entryCount == 0L)
      val mapped = sum.mapRows("k", "v + 1 AS v")
      assert(mapped.isEmpty && mapped.compact().entryCount == 0L)
      val joined = mapped.join(a, Seq("k"))
      assert(joined.isEmpty && joined.entryCount == 0L)
      val joinedRight = a.join(zero, Seq("k"))
      assert(joinedRight.compact().isEmpty)
      assert(a.cartesian(zero.project("v")).entryCount == 0L)
      assert(zero.filterZ(zero.df("k") > 0).distinctZ.consolidate().isEmpty)
    }
    assert(jobs == 0)
  }

  /** `a.compact()` and the jobs it launches beyond checkpointing `a`'s
    * consolidation; then, launching no job, its entry count is `n`, and
    * compacting, consolidating or adding a known zero keeps it.
    */
  private def compactOnce(a: ZSet, n: Long): (ZSet, Int) = {
    val (c, compactJobs) = jobsOf(a.compact())
    val (_, checkpointJobs) = jobsOf(a.consolidate().df.localCheckpoint())
    assert(checkpointJobs > 0)
    val (_, jobs) = jobsOf {
      assert(c.entryCount == n)
      assert(!c.isEmpty && c.nonEmpty)
      assert(c.compact() eq c)
      assert(c.consolidate() eq c)
      // Adding a known zero keeps the known count.
      assert(c.plus(ZSet.empty(spark, kv)).entryCount == n)
      assert(ZSet.empty(spark, kv).plus(c).entryCount == n)
    }
    assert(jobs == 0)
    (c, compactJobs - checkpointJobs)
  }

  test("entryCount and isEmpty after compact() launch no job") {
    // At most LocalLimit entries: the checkpoint is collected by one more job.
    val a = ZSet.raw(df2("k", "v", (1L, 10L) -> 2L, (1L, 10L) -> -1L, (2L, 20L) -> 1L, (3L, 30L) -> 0L)
      .localCheckpoint())
    val (c, extra) = compactOnce(a, 2L)
    assert(extra == 1 && c.isLocal)
    assert(c.entries() == Seq((Seq("1", "10"), 1L), (Seq("2", "20"), 1L)))
  }

  test("compact() of more than LocalLimit entries launches only its checkpoint's jobs") {
    // Learning the count adds no Spark action to the checkpoint itself.
    val n = ZSet.LocalLimit + 1L
    val rows = (0L until n).map(i => (i, i) -> 1L) :+ ((0L, 0L) -> -1L) :+ ((n, n) -> 1L)
    val (c, extra) = compactOnce(ZSet.raw(df2("k", "v", rows: _*).localCheckpoint()), n)
    assert(extra == 0 && !c.isLocal)
  }

  test("an empty IncrementalDistinct step and an all-zero first row of NestedIncrementalDistinct launch no job") {
    val k = StructType(Seq(StructField("k", LongType)))
    val op = new IncrementalDistinct
    op.step(zs1("k", 1L -> 1L, 2L -> 2L))
    val nested = new NestedIncrementalDistinct()(ZSet.group(spark, k))
    val (_, jobs) = jobsOf {
      assert(op.step(ZSet.empty(spark, k)).isEmpty)
      nested.newOuterTick()
      assert(Seq.fill(3)(nested.step(ZSet.empty(spark, k))).forall(_.isEmpty))
    }
    assert(jobs == 0)
  }

  test("physicalCount stays a real Spark count") {
    val c = zs1("k", 1L -> 1L, 2L -> 1L).compact()
    val (n, jobs) = jobsOf(c.physicalCount)
    assert(n == 2L && jobs > 0)
  }

  test("a single-edge update of the incremental transitive closure stays under its job ceiling") {
    val itc = new IncrementalTransitiveClosure(spark)
    itc.step(held(zs2("h", "t", dag.map(_ -> 1L): _*)))
    val (_, insertJobs) = jobsByKind(itc.step(zs2("h", "t", (0L, 5L) -> 1L)))
    val (_, deleteJobs) = jobsByKind(itc.step(zs2("h", "t", (0L, 5L) -> -1L)))
    // The from-scratch recompute of the same edges, loaded as the update's were.
    val inserted = held(zs2("h", "t", (dag :+ (0L -> 5L)).map(_ -> 1L): _*))
    val deleted = held(zs2("h", "t", dag.map(_ -> 1L): _*))
    val (_, insertScratch) = jobsByKind(TransitiveClosure.semiNaive(inserted))
    val (_, deleteScratch) = jobsByKind(TransitiveClosure.semiNaive(deleted))
    info(s"jobs: insert $insertJobs, delete $deleteJobs; semiNaive $insertScratch and $deleteScratch")
    assert(insertJobs.all <= TcInsertCeiling && insertJobs.broadcast == 0)
    assert(deleteJobs.all <= TcDeleteCeiling && deleteJobs.broadcast == 0)
    assert(insertJobs.all < insertScratch.all && deleteJobs.all < deleteScratch.all)
  }

  test("a single-edge update of the incremental transitive closure over Spark-held outer columns launches no broadcast") {
    // More than LocalLimit edges: the bulk load and the outer sums of its
    // columns stay Spark-held, so the update's products probe them.
    val edges = ZSet.fromSet(SynthGraph.layeredEdges(spark, 3, 300, 2)).compact()
    assert(!edges.isLocal)
    val itc = new IncrementalTransitiveClosure(spark)
    val (_, bulk) = itc.step(edges)
    val updates = Seq((0L, 650L) -> 1L, (0L, 650L) -> -1L, (5L, 305L) -> 1L)
    val jobs = updates.map(u => jobsByKind(itc.step(zs2("h", "t", u)))._2)
    val inserted = edges.plus(zs2("h", "t", updates.head)).compact()
    val (_, scratch) = jobsByKind(TransitiveClosure.semiNaive(inserted))
    info(s"${edges.entryCount} edges, bulk deltas ${bulk.deltaSizesPerIteration.mkString("/")}; " +
      s"jobs: updates ${jobs.mkString(", ")}; semiNaive $scratch")
    for ((j, c) <- jobs.zip(LayeredTcCeilings)) assert(j.all <= c && j.broadcast == 0, s"jobs $j, ceiling $c")
    assert(jobs.head.all < scratch.all)
  }

  test("an empty transaction of the incremental transitive closure stays under its job ceiling") {
    val itc = new IncrementalTransitiveClosure(spark)
    itc.step(held(zs2("h", "t", dag.map(_ -> 1L): _*)))
    val (_, jobs) = jobsOf(itc.step(TransitiveClosure.emptyE(spark)))
    info(s"jobs: $jobs")
    assert(jobs <= TcEmptyCeiling)
  }

  test("a single-edge update and an empty transaction of the incremental transitive closure over a compacted DAG launch no job") {
    val itc = new IncrementalTransitiveClosure(spark)
    val edges = held(zs2("h", "t", dag.map(_ -> 1L): _*)).compact()
    assert(edges.isLocal)
    itc.step(edges)
    val (_, insertJobs) = jobsOf(itc.step(zs2("h", "t", (0L, 5L) -> 1L)))
    val (_, deleteJobs) = jobsOf(itc.step(zs2("h", "t", (0L, 5L) -> -1L)))
    val (_, emptyJobs) = jobsOf(itc.step(TransitiveClosure.emptyE(spark)))
    info(s"jobs: insert $insertJobs, delete $deleteJobs, empty $emptyJobs")
    assert(insertJobs <= TcSmallUpdateCeiling && deleteJobs <= TcSmallUpdateCeiling)
    assert(emptyJobs <= TcSmallEmptyCeiling)
  }

  test("a small-delta and an all-empty tick of IncrementalJoin stay under their job ceilings") {
    val op = new IncrementalJoin(Seq("k"))
    val kvb = StructType(Seq(StructField("k", LongType), StructField("vb", LongType)))
    val (small, again, empty) = tickJobs("join")(
      op.step(bulk("v"), bulk("vb")),
      op.step(zs2("k", "v", (3L, 1000L) -> 1L, (4L, 4L) -> -1L), zs2("k", "vb", (5L, 2000L) -> 1L)),
      op.step(zs2("k", "v", (6L, 1001L) -> 1L, (7L, 7L) -> -1L), zs2("k", "vb", (3L, 2001L) -> 1L)),
      op.step(ZSet.empty(spark, kv), ZSet.empty(spark, kvb)))
    assert(small.all <= JoinSmallCeiling && small.broadcast == 0 && empty.all <= JoinEmptyCeiling)
    assert(again.all <= IndexedTickCeiling)
  }

  test("a small-batch and an all-empty tick of StreamRelationJoin stay under their job ceilings") {
    val op = new StreamRelationJoin(Seq("k"))
    val kev = StructType(Seq(StructField("k", LongType), StructField("ev", LongType)))
    val (small, again, empty) = tickJobs("stream join")(
      op.step(bulk("v"), ZSet.empty(spark, kev)),
      op.step(ZSet.empty(spark, kv), zs2("k", "ev", (3L, 7L) -> 1L, (4L, 8L) -> 1L)),
      op.step(zs2("k", "v", (6L, 1001L) -> 1L), zs2("k", "ev", (6L, 9L) -> 1L)),
      op.step(ZSet.empty(spark, kv), ZSet.empty(spark, kev)))
    assert(small.all <= StreamJoinSmallCeiling && small.broadcast == 0 && empty.all <= StreamJoinEmptyCeiling)
    assert(again.all <= IndexedTickCeiling)
  }

  test("a small-delta and an all-empty tick of IncrementalDistinct stay under their job ceilings") {
    val op = new IncrementalDistinct
    val (small, again, empty) = tickJobs("distinct")(
      op.step(bulk("v").project("k")),
      op.step(zs1("k", 3L -> -5L, 500L -> 1L)),
      op.step(zs1("k", 3L -> 5L, 6L -> -1L, 5000L -> 1L)),
      op.step(ZSet.empty(spark, StructType(Seq(StructField("k", LongType))))))
    assert(small.all <= DistinctSmallCeiling && small.broadcast == 0 && empty.all <= DistinctEmptyCeiling)
    assert(again.all <= IndexedTickCeiling)
  }

  test("a small-delta tick over a trace of more than IndexLimit entries takes the bounded probe") {
    val k = StructType(Seq(StructField("k", LongType)))
    val load = ZSet.fromSet(spark.range(0L, Trace.IndexLimit + 1L).toDF("k")).compact()
    val distinct = new IncrementalDistinct
    val min = new IncrementalGroupAggregate(Seq("k"), AggFunc.Min("v"))
    val ticks = Seq(
      tickJobs("unindexed distinct")(
        distinct.step(load),
        distinct.step(zs1("k", 3L -> -1L, 70000L -> 1L)),
        distinct.step(zs1("k", 4L -> -1L, 70001L -> 1L)),
        distinct.step(ZSet.empty(spark, k))),
      tickJobs("unindexed MIN")(
        min.step(load.mapRows("k % 100 AS k", "k AS v")),
        min.step(zs2("k", "v", (3L, 3L) -> -1L)),
        min.step(zs2("k", "v", (4L, -4L) -> 1L)),
        min.step(ZSet.empty(spark, kv))))
    assert(ticks.forall { case (s, a, e) =>
      s.all == UnindexedSmallJobs && a.all == UnindexedSmallJobs && s.broadcast == 0 && e.all == 0 })
  }

  /** The small-delta and all-empty tick jobs of an incremental aggregate
    * loaded with `load`.
    */
  private def aggTicks(name: String, keys: Seq[String], f: AggFunc, load: ZSet): (JobCount, JobCount, JobCount) = {
    val op = new IncrementalGroupAggregate(keys, f)
    tickJobs(name)(
      op.step(load),
      op.step(zs2("k", "v", (3L, 1000L) -> 1L, (4L, 4L) -> -1L)),
      op.step(zs2("k", "v", (3L, 1000L) -> -1L, (6L, -6L) -> 1L, (5000L, 1L) -> 1L)),
      op.step(ZSet.empty(spark, kv)))
  }

  test("a small-delta and an all-empty tick of grouped SUM and MIN stay under their job ceilings") {
    val (sumSmall, sumAgain, sumEmpty) = aggTicks("SUM", Seq("k"), AggFunc.Sum("v"), bulk("v"))
    val (minSmall, minAgain, minEmpty) = aggTicks("MIN", Seq("k"), AggFunc.Min("v"), bulk("v"))
    // A global SUM's state is one accumulator row, local however large its input.
    val (gSumSmall, _, gSumEmpty) = aggTicks("global SUM", Nil, AggFunc.Sum("v"), bulk("v"))
    assert(sumSmall.all <= SumSmallCeiling && sumEmpty.all <= SumEmptyCeiling)
    assert(minSmall.all <= MinSmallCeiling && minEmpty.all <= MinEmptyCeiling)
    assert(gSumSmall.all <= GlobalSumSmallCeiling && gSumEmpty.all == 0)
    assert(sumAgain.all <= IndexedTickCeiling && minAgain.all <= IndexedTickCeiling)
    assert(Seq(sumSmall, minSmall, gSumSmall).forall(_.broadcast == 0))
  }

  test("a small-delta and an all-empty tick over state of at most LocalLimit entries launch no job") {
    val kvb = StructType(Seq(StructField("k", LongType), StructField("vb", LongType)))
    val kev = StructType(Seq(StructField("k", LongType), StructField("ev", LongType)))
    val join = new IncrementalJoin(Seq("k"))
    val streamJoin = new StreamRelationJoin(Seq("k"))
    val distinct = new IncrementalDistinct
    val ticks = Seq(
      tickJobs("small-state join")(
        join.step(small("v"), small("vb")),
        join.step(zs2("k", "v", (3L, 1000L) -> 1L, (4L, 4L) -> -1L), zs2("k", "vb", (5L, 2000L) -> 1L)),
        join.step(zs2("k", "v", (6L, 1001L) -> 1L), zs2("k", "vb", (3L, 2001L) -> 1L)),
        join.step(ZSet.empty(spark, kv), ZSet.empty(spark, kvb))),
      tickJobs("small-state stream join")(
        streamJoin.step(small("v"), ZSet.empty(spark, kev)),
        streamJoin.step(ZSet.empty(spark, kv), zs2("k", "ev", (3L, 7L) -> 1L, (4L, 8L) -> 1L)),
        streamJoin.step(zs2("k", "v", (6L, 1001L) -> 1L), zs2("k", "ev", (6L, 9L) -> 1L)),
        streamJoin.step(ZSet.empty(spark, kv), ZSet.empty(spark, kev))),
      tickJobs("small-state distinct")(
        distinct.step(small("v").project("k")),
        distinct.step(zs1("k", 3L -> -5L, 500L -> 1L)),
        distinct.step(zs1("k", 3L -> 5L, 6L -> -1L)),
        distinct.step(ZSet.empty(spark, StructType(Seq(StructField("k", LongType)))))),
      aggTicks("small-state SUM", Seq("k"), AggFunc.Sum("v"), small("v")),
      aggTicks("small-state MIN", Seq("k"), AggFunc.Min("v"), small("v")),
      aggTicks("small-state global SUM", Nil, AggFunc.Sum("v"), small("v")),
      // A global MIN's state is its whole input: above LocalLimit its probe
      // takes the broadcast plan (tested below), at most LocalLimit it is local.
      aggTicks("small-state global MIN", Nil, AggFunc.Min("v"), small("v")))
    assert(ticks.forall { case (s, a, e) => Seq(s, a, e).forall(_.all <= SmallStateCeiling) })
  }

  test("a change of more than LocalLimit rows is not local and costs what it did before") {
    // Distinct keys, so that the distinct's change, its projection, has
    // more than LocalLimit entries too.
    val large = zs2("k", "v", (0L to ZSet.LocalLimit.toLong).map(i => (i, i + 1000) -> 1L): _*)
    assert(!large.isLocal && !large.project("k").compact().isLocal)
    val join = new IncrementalJoin(Seq("k"))
    val distinct = new IncrementalDistinct
    val kvb = StructType(Seq(StructField("k", LongType), StructField("vb", LongType)))
    join.step(bulk("v"), bulk("vb")).compact()
    distinct.step(bulk("v").project("k")).compact()
    val (_, j) = jobsByKind(join.step(large, ZSet.empty(spark, kvb)).compact())
    val (_, d) = jobsByKind(distinct.step(large.project("k")).compact())
    info(s"large-change jobs: join $j, distinct $d")
    assert(j.all == JoinLargeJobs && d.all == DistinctLargeJobs)
  }

  test("a Spark-held change of more than LocalLimit rows against local state is probed by the state's keys") {
    val join = new IncrementalJoin(Seq("k"))
    val kvb = StructType(Seq(StructField("k", LongType), StructField("vb", LongType)))
    join.step(small("v"), small("vb")).compact()
    // Keys 19 to 1043: only key 19 is in the state, in 5 of its rows.
    val large = zs2("k", "v", (0L to ZSet.LocalLimit.toLong).map(i => (i + 19, i) -> 1L): _*)
    val (out, j) = jobsByKind(join.step(large, ZSet.empty(spark, kvb)).compact())
    info(s"jobs: $j")
    assert(out.entryCount == 5L && j.all <= JoinLargeChangeSmallStateCeiling && j.broadcast == 0)
  }

  test("a Spark-held change with more than LocalLimit rows matching local state joins as the Spark join does") {
    val join = new IncrementalJoin(Seq("k"))
    val kvb = StructType(Seq(StructField("k", LongType), StructField("vb", LongType)))
    join.step(small("v"), small("vb")).compact()
    // 2000 rows over the state's 20 keys: all match, so the change's probe
    // by the state's keys is not bounded.
    val large = zs2("k", "v", (0L until 2000L).map(i => (i % 20, i + 100) -> 1L): _*)
    val (out, j) = jobsByKind(join.step(large, ZSet.empty(spark, kvb)).compact())
    info(s"jobs: $j")
    assert(j.all <= JoinLargeMatchSmallStateCeiling && j.broadcast <= 1)
    assert(out.entryCount == 10000L && out.zequals(held(large).join(held(small("vb")), Seq("k"))))
  }

  test("the state of E1's circuit and of grouped MIN at toy size stays under its entry ceilings, known without a job") {
    // 3000 orders of 300 customers, prices uniform in [1000, 501000), then
    // three ticks that each delete 10 live orders and insert 10 new ones:
    // E1's view and the MIN of the price per customer maintained.
    val rnd = new java.util.Random(7)
    val orderSchema = StructType(Seq(StructField("o_orderkey", LongType), StructField("o_custkey", LongType),
      StructField("o_totalprice", DoubleType), StructField(ZSet.W, LongType)))
    def order(key: Long) = Row(key, 1L + rnd.nextInt(300), 1000.0 + rnd.nextInt(500000), 1L)
    def orders(rows: Seq[Row]) = ZSet.raw(spark.createDataFrame(rows.asJava, orderSchema))
    val live = mutable.ArrayBuffer.tabulate(3000)(i => order(i + 1L))
    val customer = ZSet.raw(spark.createDataFrame((1L to 300L).map(c => Row(c, s"SEGMENT${c % 5}", 1L)).asJava,
      StructType(Seq(StructField("c_custkey", LongType), StructField("c_mktsegment", StringType),
        StructField(ZSet.W, LongType)))))
    val ticks = Seq(orders(live.toSeq)) ++ (1 to 3).map { t =>
      val dels = Seq.fill(10)(live.remove(rnd.nextInt(live.size)))
      val ins = (1 to 10).map(i => order(10000L * t + i))
      live ++= ins
      orders(ins ++ dels.map(r => Row(r.get(0), r.get(1), r.get(2), -1L)))
    }
    val pushed = Incrementalizer.incremental(E1RelationalIvm.query)
    val unpushed = new IncrementalRunner(DistinctOptimizer.optimize(Table1.translate(E1RelationalIvm.query)))
    val min = new IncrementalGroupAggregate(Seq("o_custkey"), AggFunc.Min("o_totalprice"))
    val noCustomers = ZSet.empty(spark, customer.dataSchema)
    for ((d, t) <- ticks.zipWithIndex) {
      val inputs = Map("orders" -> d, "customer" -> (if (t == 0) customer else noCustomers))
      pushed.step(inputs).compact()
      unpushed.step(inputs).compact()
      min.step(d).compact()
    }
    val (states, jobs) = jobsByKind(Seq(pushed, unpushed).map(_.stateEntries) :+ min.stateEntries)
    info(s"state entries: E1 ${states(0)} (${states(1)} with σ and π above the join), MIN ${states(2)}")
    assert(jobs.all == 0)
    assert(states(0).exists(_ <= E1StateCeiling) && states(2).exists(_ <= MinStateCeiling))
    assert(states(0).exists(n => states(1).exists(_ > n)))
  }

  test("a probe matching more than LocalLimit rows falls back to the broadcast plan") {
    val state = held(zs2("k", "v", (0L to ZSet.LocalLimit.toLong).map(i => (0L, i + 10) -> 1L): _*)).compact()
    val change = zs2("k", "v", (0L, 10L) -> -1L, (1L, 5L) -> 1L)
    assert(change.isLocal)
    assert(Trace.bounded(state, change, Nil).isEmpty && Trace.bounded(state, change, Seq("k")).isEmpty)
    for (keys <- Seq(Seq("k"), Nil)) {
      val op = new IncrementalGroupAggregate(keys, AggFunc.Min("v"))
      val before = op.step(state)
      val after = before.plus(op.step(change))
      assert(after.zequals(GroupAggregate.batch(state.plus(change), keys, AggFunc.Min("v"))))
    }
  }

  test("bulk-loading IncrementalJoin and IncrementalDistinct through step launches no job") {
    val (a, b) = (bulk("v").compact(), bulk("vb").compact())
    val d = bulk("v").project("k").compact()
    val (_, jobs) = jobsOf {
      new IncrementalJoin(Seq("k")).step(a, b)
      new IncrementalDistinct().step(d)
    }
    assert(jobs == 0)
  }
}

object MetricsBudgetSpec {
  /** Three layers of three nodes; every node has two edges into the next. */
  private val dag: Seq[(Long, Long)] = Seq(
    0L -> 3L, 0L -> 4L, 1L -> 4L, 1L -> 5L, 2L -> 5L, 2L -> 3L,
    3L -> 6L, 3L -> 7L, 4L -> 7L, 4L -> 8L, 5L -> 8L, 5L -> 6L)

  // Measured on Spark 4.1.2, local[4], with the DAG loaded Spark-held and a
  // local single-edge change: 1 and 1 jobs, no broadcast, the bounded probe
  // of the bilinear's outer integral of the uncompacted DAG, since every
  // compacted state of this small closure is local (6 and 6, all bounded
  // probes, while `compact()` kept small results Spark-held; 30 and 30, 2
  // broadcasts, with the distinct as Dₒ ∘ ↑IncrementalDistinct ∘ Iₒ; 37 and
  // 37, 8 broadcasts, with its hand-written four-corner join; 39 and 39
  // before changes became driver-local).
  private val TcInsertCeiling = 1
  private val TcDeleteCeiling = 1
  // A 3 × 300 layered DAG (fanout 2, 1198 edges when measured), compacted
  // and Spark-held, then +(0→650), −(0→650) and +(5→305): 6, 6 and 7 jobs,
  // no broadcast, against 17 for `semiNaive` (3 broadcasts). Two of the
  // nested join's products reach the flat rule with their operands swapped;
  // without probing whichever side Spark holds they took 10, 10 and 11
  // jobs, 2 of them broadcasts each.
  private val LayeredTcCeilings = Seq(6, 6, 7)
  // Empty transaction, same setting: 0 jobs (15 before the change-sized
  // nested operators, 16 before the composition).
  private val TcEmptyCeiling = 0
  // The same update and empty transaction with the DAG compacted, hence
  // local, before the load: 0, 0 and 0.
  private val TcSmallUpdateCeiling = 0
  private val TcSmallEmptyCeiling = 0

  // Small-delta tick / all-empty tick, same setting, with Spark-held bulk
  // state and local changes: join 2 / 0, distinct 1 / 0, grouped SUM 1 / 0,
  // grouped MIN 1 / 0. Before changes became driver-local they were 8 / 0,
  // 7 / 0, 9 / 0 and 8 / 0; when first set (state kept in `Accumulator`s and
  // raw DataFrames) 8 / 0, 7 / 1, 11 / 3 and 11 / 1.
  private val JoinSmallCeiling = 2
  private val JoinEmptyCeiling = 0
  private val DistinctSmallCeiling = 1
  private val DistinctEmptyCeiling = 0
  private val SumSmallCeiling = 1
  private val SumEmptyCeiling = 0
  private val MinSmallCeiling = 1
  private val MinEmptyCeiling = 0
  // StreamRelationJoin, same setting, a local 2-row batch against the
  // Spark-held relation / an all-empty tick: 1 / 0 (3 / 0 when the batch was
  // joined with the whole relation as a plain plan).
  private val StreamJoinSmallCeiling = 1
  private val StreamJoinEmptyCeiling = 0
  // The second small-delta tick of join, stream join, distinct, grouped SUM
  // and grouped MIN, same setting: 0 jobs each, every probed trace's state
  // found in the driver-side index the first tick built (the first tick's
  // collect took the place of its bounded probe, so its ceiling above is
  // unchanged; 2, 1, 1, 1 and 1 before the index, like the first tick's).
  private val IndexedTickCeiling = 0
  // A small-delta tick of distinct and grouped MIN over a Spark-held trace
  // of IndexLimit + 1 entries, too many to index: 1 job, the bounded probe,
  // on the first tick and the second.
  private val UnindexedSmallJobs = 1
  // Small-delta tick of global (keyless) SUM, same setting: 0, its one
  // accumulator row being local since `compact()` collects small results
  // (1 before, 9 before driver-local changes).
  private val GlobalSumSmallCeiling = 0
  // Small-delta and all-empty ticks of join, stream join, distinct, grouped
  // and global SUM and MIN over a 100-row load, which the operators' first
  // `compact()` makes local: 0 jobs each (as the Spark-held ticks above,
  // and global MIN 1, before small compacted results became local).
  private val SmallStateCeiling = 0
  // A join tick with a Spark-held change of LocalLimit + 1 rows against a
  // 100-row state that its first `compact()` made local: 3 jobs, no
  // broadcast, the change probed by the state's keys (6 with 1 broadcast
  // when only the state was probed, and the change broadcast).
  private val JoinLargeChangeSmallStateCeiling = 3
  // The same join, a Spark-held change of 2000 rows that all match the
  // state: 6 jobs, 1 of them the change broadcast after the change's
  // bounded probe by the state's keys found too many matches.
  private val JoinLargeMatchSmallStateCeiling = 6
  // Job-free entry bounds after a 3000-order load and three ticks of 10
  // deletions and 10 insertions: E1's circuit 5208 (5814 with σ and π above
  // the join, its orders operand unfiltered), grouped MIN 3060.
  private val E1StateCeiling = 5208L
  private val MinStateCeiling = 3060L
  // A tick with a change of LocalLimit + 1 rows, same setting, as measured
  // before local Z-sets existed.
  private val JoinLargeJobs = 5
  private val DistinctLargeJobs = 6
}
