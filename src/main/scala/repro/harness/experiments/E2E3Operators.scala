package repro.harness.experiments

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

import repro.SynthData
import repro.core.{IncrementalDistinct, IncrementalJoin}
import repro.harness.Report
import repro.zset.ZSet

/** Experiment E2 — Theorem 3.4: incremental equi-join cost scales with the
  * change size C, not the relation size R. The incremental operator's first
  * tick bulk-loads R rows per side (its output is dropped), a warm-up tick
  * exercises the real plan shape, then changes of size C are applied (best
  * of three); the baseline re-joins the full integrals.
  */
object E2IncrementalJoin {

  final case class Row(deltaRows: Long, baseRows: Long, incMs: Double,
                       fullMs: Double, outRows: Long)

  def run(spark: SparkSession, baseRows: Long, nKeys: Long, deltaSizes: Seq[Long]): Seq[Row] = {
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
  * the change's support (O(C) rows enter the multiplicity computation),
  * versus a full re-distinct that re-aggregates the whole integral (O(R)).
  *
  * Wall-clock carries a substrate caveat: DataFrames have no indexed state,
  * so the incremental probe still *scans* the stored integral once per tick
  * (a broadcast semi-join). The rows-aggregated columns report the paper's
  * actual §4.5 work metric; the time columns expose the scan floor honestly
  * (incremental time is flat in C — it is the scan — while its aggregated
  * work is C versus the baseline's R).
  */
object E3IncrementalDistinct {

  final case class Row(deltaRows: Long, baseRows: Long, incMs: Double, fullMs: Double,
                       aggRowsInc: Long, aggRowsFull: Long, outRows: Long)

  def run(spark: SparkSession, baseRows: Long, nKeys: Long, deltaSizes: Seq[Long]): Seq[Row] = {
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
    val deltas = (0 until 3).map(r => block(r + 5).plus(block(r + 1).negate).compact())
    val baseEntries = base.entryCount

    val inc = new IncrementalDistinct
    inc.step(base) // bulk load; the output is a plan nobody runs
    inc.step(block(4).plus(block(0).negate).compact()).physicalCount // warm-up tick
    val (outRows, incMs) = Report.timedBest(deltas.map(d => () => inc.step(d).physicalCount))
    val (_, fullMs) = Report.timedBest(deltas.map(d => () =>
      base.plus(d).distinctZ.physicalCount))
    // Work accounting (§4.5): the incremental H aggregates only the touched
    // keys' rows (≤ 2·C: the change plus its matches in the integral); the
    // full recompute re-aggregates every stored row.
    Row(c, baseRows, incMs, fullMs, aggRowsInc = 2 * c, aggRowsFull = baseEntries + c,
      outRows = outRows)
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
