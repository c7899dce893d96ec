package repro.harness.experiments

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

import repro.SynthData
import repro.core.{IncrementalDistinct, IncrementalJoin}
import repro.harness.{Check, Experiment, Report}
import repro.zset.{Trace, ZSet}

/** Experiment E2 — Theorem 3.4: incremental equi-join cost scales with the
  * change size C, not the relation size R. The incremental operator's first
  * tick bulk-loads R rows per side (its output is dropped), a warm-up tick
  * exercises the real plan shape, then changes of size C are applied (best
  * of three); the baseline re-joins the full integrals.
  */
object E2IncrementalJoin extends Experiment {

  final case class Size(baseRows: Long, nKeys: Long, deltaSizes: Seq[Long])
  type Result = Seq[Row]
  final case class Row(deltaRows: Long, baseRows: Long, incMs: Double,
                       fullMs: Double, outRows: Long)

  val id = "E2"
  val full: Size = Size(baseRows = 1000000, nKeys = 100000, deltaSizes = Seq(100, 1000, 10000, 100000))
  val toy: Size = Size(baseRows = 2000, nKeys = 200, deltaSizes = Seq(2, 20, 200))

  def checks(rows: Seq[Row]): Seq[Check] = Seq(Check(
    s"incremental join wins at ≥ 2 of the 3 smallest deltas: speedups ${rows.map(r => r.fullMs / r.incMs)}",
    wallClock = true, holds = rows.take(3).count(r => r.incMs < r.fullMs) >= 2))

  def run(spark: SparkSession, size: Size): Seq[Row] = {
    val Size(baseRows, nKeys, deltaSizes) = size
    val a = ZSet.fromBag(SynthData.uniformKeys(spark, baseRows, nKeys, seed = 1)
      .select(col("k"), (col("v") * 1000).cast("long") as "va")).compact()
    val b = ZSet.fromBag(SynthData.uniformKeys(spark, baseRows, nKeys, seed = 2)
      .select(col("k"), (col("v") * 1000).cast("long") as "vb")).compact()
    // One unreported sweep entry absorbs whole-JVM warm-up (codegen caches,
    // broadcast machinery, GC after data generation) before measuring.
    measure(spark, a, b, baseRows, nKeys, deltaSizes.head)
    deltaSizes.map(c => measure(spark, a, b, baseRows, nKeys, c))
  }

  private def measure(spark: SparkSession, a: ZSet, b: ZSet,
                      baseRows: Long, nKeys: Long, c: Long): Row = {
    val emptyB = ZSet.empty(spark, b.dataSchema)
    def delta(seed: Long): ZSet =
      ZSet.fromBag(SynthData.uniformKeys(spark, c, nKeys, seed)
        .select(col("k"), (col("v") * 1000).cast("long") as "va")).compact()

    val inc = new IncrementalJoin(Seq("k"))
    inc.step(a, b) // bulk load; the output is a plan nobody runs
    inc.step(delta(99), emptyB).physicalCount // warm-up tick, unmeasured
    val das = (0 until 3).map(r => delta(3 + r))
    val (outRows, incMs) = Report.timedBest(das.map(da => () => inc.step(da, emptyB).physicalCount))
    val (_, fullMs) = Report.timedBest(das.map(da => () =>
      a.plus(da).join(b, Seq("k")).physicalCount))
    Row(c, baseRows, incMs, fullMs, outRows)
  }

  val headers: Seq[String] =
    Seq("ΔC (rows)", "R (rows/side)", "incremental ms", "full rejoin ms", "speedup", "Δout rows")

  def render(rows: Seq[Row]): Seq[Seq[String]] = rows.map { r =>
    Seq(r.deltaRows.toString, r.baseRows.toString, Report.f1(r.incMs),
      Report.f1(r.fullMs), Report.f2(r.fullMs / r.incMs), r.outRows.toString)
  }

  def emit(rows: Seq[Row]): Unit =
    Report.emit("E2 — incremental join (Theorem 3.4)", headers, render(rows))
}

/** Experiment E3 — Proposition 4.7: incremental distinct *aggregates* only
  * the change's support (O(C) rows enter the multiplicity computation: the
  * change and its matches in the integral, measured by probing the integral
  * as H does), versus a full re-distinct that re-aggregates the whole
  * integral (O(R)).
  *
  * Wall-clock carries a substrate caveat: an integral of R = 1M rows is
  * above `Trace.IndexLimit`, so unlike a smaller one it has no driver-side
  * index and the incremental probe still *scans* it once per tick: for a
  * change of at most `ZSet.LocalLimit` rows (C = 100 and 1000) it is the
  * bounded probe, one job that filters the integral with an `isin` literal
  * of the change's keys, and for larger changes a broadcast semi-join
  * ([[Trace.probe]]). At toy size the integral is indexed. The rows-aggregated columns report the paper's
  * actual §4.5 work metric; the time columns expose the scan floor honestly
  * (incremental time is flat in C — it is the scan — while its aggregated
  * work is C versus the baseline's R).
  */
object E3IncrementalDistinct extends Experiment {

  final case class Size(baseRows: Long, nKeys: Long, deltaSizes: Seq[Long])
  type Result = Seq[Row]
  final case class Row(deltaRows: Long, baseRows: Long, incMs: Double, fullMs: Double,
                       aggRowsInc: Long, aggRowsFull: Long, outRows: Long)

  val id = "E3"
  val full: Size = Size(baseRows = 1000000, nKeys = 600000, deltaSizes = Seq(100, 1000, 10000, 100000))
  val toy: Size = Size(baseRows = 2000, nKeys = 1200, deltaSizes = Seq(2, 20, 200))

  /** §4.5: the incremental work is O(C) against the recompute's O(R). The
    * wall-clock keeps a scan floor (an unindexed 1M-row state), so its check is
    * flatness in C.
    */
  def checks(rows: Seq[Row]): Seq[Check] = {
    val incTimes = rows.map(_.incMs)
    Seq(
      Check(s"at the smallest delta the work ratio ${rows.head.aggRowsFull} / ${rows.head.aggRowsInc} is ≥ 20",
        wallClock = false, holds = rows.head.aggRowsFull / rows.head.aggRowsInc >= 20),
      Check(s"incremental time is about flat in C (max/min < 20): $incTimes", wallClock = true,
        holds = incTimes.max / incTimes.min < 20.0))
  }

  def run(spark: SparkSession, size: Size): Seq[Row] = {
    val Size(baseRows, nKeys, deltaSizes) = size
    // A high-cardinality bag (so the integral physically holds ~R distinct
    // tuples) plus blocks of unique singleton keys that the deltas retract;
    // fresh keys live beyond all used ranges.
    val bagPart = ZSet.fromBag(
      SynthData.uniformKeys(spark, baseRows, nKeys, seed = 5).select("k"))
    measure(spark, bagPart, baseRows, nKeys, deltaSizes.head) // unreported warm-up entry
    deltaSizes.map(c => measure(spark, bagPart, baseRows, nKeys, c))
  }

  private def measure(spark: SparkSession, bagPart: ZSet,
                      baseRows: Long, nKeys: Long, c: Long): Row = {
    val half = math.max(1L, c / 2)
    def block(i: Long): ZSet = ZSet.fromSet(
      spark.range(nKeys + 1 + i * half, nKeys + 1 + (i + 1) * half)
        .select(col("id") as "k"))
    // Blocks 0–3 are retractable (in the base); 4–7 are the fresh inserts.
    val base = bagPart.plus(block(0)).plus(block(1)).plus(block(2)).plus(block(3)).compact()
    val warm = block(4).plus(block(0).negate).compact()
    val deltas = (0 until 3).map(r => block(r + 5).plus(block(r + 1).negate).compact())
    val baseEntries = base.entryCount

    val inc = new IncrementalDistinct
    inc.step(base) // bulk load; the output is a plan nobody runs
    inc.step(warm).physicalCount // warm-up tick
    val (outRows, incMs) = Report.timedBest(deltas.map(d => () => inc.step(d).physicalCount))
    val (_, fullMs) = Report.timedBest(deltas.map(d => () =>
      base.plus(d).distinctZ.physicalCount))
    // Work accounting (§4.5): the incremental H aggregates the change plus
    // the rows a probe of the integral before it returns, the most over the
    // measured ticks; the full recompute re-aggregates every stored row.
    val before = deltas.scanLeft(base.plus(warm))(_ plus _)
    val aggRowsInc = deltas.zip(before).map { case (d, i) =>
      d.entryCount + Trace.probe(i, d, d.dataCols).physicalCount }.max
    Row(c, baseRows, incMs, fullMs, aggRowsInc, aggRowsFull = baseEntries + c, outRows = outRows)
  }

  val headers: Seq[String] =
    Seq("ΔC (rows)", "R (rows)", "inc ms", "full ms", "agg rows (inc)", "agg rows (full)",
      "work ratio", "Δout rows")

  def render(rows: Seq[Row]): Seq[Seq[String]] = rows.map { r =>
    Seq(r.deltaRows.toString, r.baseRows.toString, Report.f1(r.incMs), Report.f1(r.fullMs),
      r.aggRowsInc.toString, r.aggRowsFull.toString,
      Report.f1(r.aggRowsFull.toDouble / r.aggRowsInc), r.outRows.toString)
  }

  def emit(rows: Seq[Row]): Unit =
    Report.emit("E3 — incremental distinct (Proposition 4.7)", headers, render(rows))
}
