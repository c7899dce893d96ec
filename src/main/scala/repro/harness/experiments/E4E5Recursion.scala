package repro.harness.experiments

import org.apache.spark.sql.SparkSession

import repro.SynthGraph
import repro.harness.{Check, Experiment, Report}
import repro.metrics.JobCounter
import repro.nested.IncrementalTransitiveClosure
import repro.recursive.TransitiveClosure
import repro.zset.ZSet

/** Experiment E4 — §5.1: naïve vs semi-naïve fixpoint evaluation of the
  * transitive closure. The table shows, per iteration, the tuples the loop
  * body produces: the full relation for naïve, only the frontier delta for
  * semi-naïve — Algorithm 1 vs Algorithm 2 of [11], derived in DBSP by the
  * cycle rule.
  */
object E4SemiNaive extends Experiment {

  final case class Size(layers: Int, width: Int, fanout: Int)
  final case class Result(
      closureSize: Long,
      naiveIters: Int, semiIters: Int,
      naiveWork: Seq[Long], semiWork: Seq[Long],
      naiveMs: Double, semiMs: Double)

  val id = "E4"
  val full: Size = Size(layers = 8, width = 40, fanout = 3)
  val toy: Size = Size(layers = 4, width = 5, fanout = 2)

  /** Beside the equal fixpoints `run` requires: semi-naïve derives fewer
    * tuples in total, and no more than naïve in any iteration.
    */
  def checks(r: Result): Seq[Check] = Seq(
    Check(s"semi-naïve total ${r.semiWork.sum} < naïve total ${r.naiveWork.sum}", wallClock = false,
      holds = r.semiWork.sum < r.naiveWork.sum),
    Check(s"semi-naïve ≤ naïve per iteration: ${r.semiWork} vs ${r.naiveWork}", wallClock = false,
      holds = r.semiWork.zip(r.naiveWork).forall { case (d, f) => d <= f }))

  def run(spark: SparkSession, size: Size): Result = {
    val Size(layers, width, fanout) = size
    val e = ZSet.fromSet(SynthGraph.layeredEdges(spark, layers, width, fanout)).compact()
    val ((rn, sn), naiveMs) = Report.timed(TransitiveClosure.naive(e))
    val ((rs, ss), semiMs) = Report.timed(TransitiveClosure.semiNaive(e))
    require(rn.zequals(rs), "naive and semi-naive closures differ")
    Result(rs.entryCount, sn.iterations, ss.iterations,
      sn.workPerIteration, ss.workPerIteration, naiveMs, semiMs)
  }

  val headers: Seq[String] = Seq("iteration", "naïve tuples", "semi-naïve Δ tuples")

  def render(r: Result): Seq[Seq[String]] = {
    val n = math.max(r.naiveWork.size, r.semiWork.size)
    (0 until n).map { i =>
      Seq(i.toString,
        r.naiveWork.lift(i).map(_.toString).getOrElse("-"),
        r.semiWork.lift(i).map(_.toString).getOrElse("-"))
    } :+ Seq("TOTAL", r.naiveWork.sum.toString, r.semiWork.sum.toString) :+
      Seq("wall ms", Report.f1(r.naiveMs), Report.f1(r.semiMs))
  }

  def emit(r: Result): Unit =
    Report.emit(s"E4 — naïve vs semi-naïve TC (|closure| = ${r.closureSize})",
      headers, render(r))
}

/** Experiment E5 — §6.1/§6.2: incremental maintenance of a recursive query.
  * After a bulk load, single-edge transactions (inserts and deletes) are
  * applied; we compare the incrementally-maintained circuit of Figure 2
  * against a from-scratch semi-naïve recomputation, on wall time, tuples
  * derived and Spark jobs launched (the paper's claim is about work:
  * proportional to the changes, at the price of per-iteration state).
  */
object E5IncrementalRecursion extends Experiment {

  final case class Size(layers: Int, width: Int, fanout: Int)
  type Result = Seq[Row]
  final case class Row(update: String, incMs: Double, incTuples: Long, incJobs: Int,
                       scratchMs: Double, scratchTuples: Long, scratchJobs: Int, viewDelta: Long)

  val id = "E5"
  val full: Size = Size(layers = 7, width = 40, fanout = 3)
  // A bulk-load closure of 1170 rows, above `ZSet.LocalLimit`, so the toy
  // closure is Spark-held as the full size's is. At width 11 (1124 rows)
  // the recompute's state is still small enough that its first update
  // launches as few jobs as the incremental one (2 and 2).
  val toy: Size = Size(layers = 7, width = 12, fanout = 2)

  /** §6.2: per update, the incremental circuit derives a small fraction of
    * the tuples a from-scratch semi-naïve recompute derives, and launches
    * fewer Spark jobs.
    */
  def checks(rows: Seq[Row]): Seq[Check] = rows.drop(1).flatMap(r => Seq(
    Check(s"${r.update}: inc tuples ${r.incTuples} < scratch ${r.scratchTuples} / 2", wallClock = false,
      holds = r.incTuples < r.scratchTuples / 2),
    Check(s"${r.update}: inc jobs ${r.incJobs} < scratch jobs ${r.scratchJobs}", wallClock = false,
      holds = r.incJobs < r.scratchJobs)))

  def run(spark: SparkSession, size: Size): Seq[Row] = {
    import spark.implicits._
    val Size(layers, width, fanout) = size
    val updates = Seq[(Long, Long, Long)]( // (h, t, weight)
      (0L, 6L * width, 1L),                 // long-range insert (new shortcuts)
      (2L * width + 1, 2L * width + 2, 1L), // local insert within a layer
      (0L, 6L * width, -1L),                // delete the shortcut again
      (width.toLong, 2L * width, 1L))       // cross-layer insert
    val e0 = ZSet.fromSet(SynthGraph.layeredEdges(spark, layers, width, fanout)).compact()

    val itc = new IncrementalTransitiveClosure(spark)
    val (_, bulk) = itc.step(e0)
    val bulkRow = Row("bulk load", -1, bulk.totalDelta, -1, -1, -1, -1, -1)

    var eAcc = e0
    val rows = updates.map { case (h, t, w) =>
      val dE = ZSet.raw(Seq((h, t, w)).toDF("h", "t", ZSet.W))
      val (((dR, stats), incMs), incJobs) = JobCounter.count(spark)(Report.timed(itc.step(dE)))
      val dRows = dR.entryCount
      eAcc = eAcc.plus(dE).compact()
      val (((_, sstats), scratchMs), scratchJobs) =
        JobCounter.count(spark)(Report.timed(TransitiveClosure.semiNaive(eAcc)))
      val sign = if (w > 0) "+" else "−"
      Row(s"$sign($h→$t)", incMs, stats.totalDelta, incJobs.all,
        scratchMs, sstats.totalWork, scratchJobs.all, dRows)
    }
    bulkRow +: rows
  }

  val headers: Seq[String] = Seq("update", "incremental ms", "inc tuples", "inc jobs",
    "from-scratch ms", "scratch tuples", "scratch jobs", "|Δview|")

  def render(rows: Seq[Row]): Seq[Seq[String]] = rows.map { r =>
    def m(v: Double) = if (v < 0) "-" else Report.f1(v)
    def c(v: Long) = if (v < 0) "-" else v.toString
    Seq(r.update, m(r.incMs), c(r.incTuples), c(r.incJobs), m(r.scratchMs), c(r.scratchTuples),
      c(r.scratchJobs), c(r.viewDelta))
  }

  def emit(rows: Seq[Row]): Unit =
    Report.emit("E5 — incremental recursive query (§6.1 circuit) vs recompute", headers, render(rows))
}
