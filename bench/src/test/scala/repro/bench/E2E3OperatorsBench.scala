package repro.bench

import repro.SparkSpec
import repro.harness.experiments.{E2IncrementalJoin, E3IncrementalDistinct}

/** E2 — Theorem 3.4 at 1M rows/side. */
class E2IncrementalJoinBench extends SparkSpec {
  test("E2: incremental join, Δ sweep at R = 1M") {
    val rows = E2IncrementalJoin.run(spark, baseRows = 1000000, nKeys = 100000,
      deltaSizes = Seq(100, 1000, 10000, 100000))
    E2IncrementalJoin.emit(rows)
    // Shape: the incremental join wins for small-to-medium deltas.
    assert(rows.take(3).count(r => r.incMs < r.fullMs) >= 2,
      s"incremental join should win at small deltas: ${rows.map(r => r.fullMs / r.incMs)}")
  }
}

/** E3 — Proposition 4.7 at 1M rows / 600k keys (the recompute must rebuild a
  * large aggregation; the incremental circuit only probes its state).
  */
class E3IncrementalDistinctBench extends SparkSpec {
  test("E3: incremental distinct, Δ sweep at R = 1M") {
    val rows = E3IncrementalDistinct.run(spark, baseRows = 1000000, nKeys = 600000,
      deltaSizes = Seq(100, 1000, 10000, 100000))
    E3IncrementalDistinct.emit(rows)
    // Shape (§4.5): the incremental circuit's aggregated work is O(C) vs the
    // recompute's O(R) — ≥ 20× at the smallest delta here. Wall-clock keeps
    // a Spark-substrate scan floor (no indexed state), so the time assertion
    // is flatness in C: the incremental tick must not scale with C.
    assert(rows.head.aggRowsFull / rows.head.aggRowsInc >= 20,
      "incremental distinct work not ≪ full recompute work")
    val incTimes = rows.map(_.incMs)
    assert(incTimes.max / incTimes.min < 20.0,
      s"incremental distinct time should be ~flat in C: $incTimes")
  }
}
