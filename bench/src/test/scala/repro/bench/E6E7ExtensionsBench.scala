package repro.bench

import repro.SparkSpec
import repro.harness.experiments.{E6Aggregates, E7Window}

/** E6 — §7.2–7.4: incremental grouped aggregates at SF 0.2. */
class E6AggregatesBench extends SparkSpec {
  test("E6: incremental SUM and MIN per group, Δ sweep") {
    val rows = E6Aggregates.run(spark, sf = 0.2, deltaSizes = Seq(100, 1000, 10000))
    E6Aggregates.emit(rows)
    val smallSum = rows.find(r => r.agg.startsWith("SUM") && r.deltaRows == 100).get
    assert(smallSum.incMs < smallSum.fullMs,
      "small-delta incremental SUM not faster than recompute")
  }
}

/** E7 — §7.6.1: bounded-state windows over an unbounded stream. */
class E7WindowBench extends SparkSpec {
  test("E7: window state stays bounded while the integral grows") {
    val rows = E7Window.run(spark, ticks = 8, rowsPerTick = 20000, width = 25.0)
    E7Window.emit(rows)
    val last = rows.last
    // The integral holds every event ever seen; the window state must stay
    // well below it once eviction kicks in (width 25 ⇒ ~2.5 ticks retained).
    assert(last.windowState < last.integralRows / 2,
      s"window state ${last.windowState} not bounded vs integral ${last.integralRows}")
    // And the window's per-tick cost must not grow with history: compare the
    // last tick against the first post-warmup tick within a generous factor.
    val warm = rows.drop(2)
    assert(warm.last.windowMs < warm.head.windowMs * 5 + 2000)
  }
}
