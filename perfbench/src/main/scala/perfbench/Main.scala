package perfbench

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

import repro.jobs.Jobs

/** The benchmark harness. One run: start a session, set the workload up
  * several times (set-up time is the median), then apply the seeded change
  * stream in a closed loop — one transaction in flight — for `--seconds`,
  * check the integrated views, and print one JSON line of metrics.
  *
  * `--trace 0` reports end-to-end metrics from one untraced instance.
  * `--trace 1` runs an untraced and a traced instance on the same changes,
  * alternating which goes first, and reports per-layer metrics from the
  * traced one; tracing overhead is the difference of their median ticks,
  * and both must launch the same Spark jobs tick for tick.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, toy: Boolean)

  /** Span names, in report order. */
  val Spans: Seq[String] = Seq("relational.step", "agg.sum.step", "agg.min.step",
    "zset.materialize", "nested.step", "recursive.semi_naive", "check", "harness.gen")

  /** Counts the program reports itself (`IncTcStats`, `FixpointStats`), with units. */
  val Counters: Seq[(String, String)] = Seq("nested.inner_iterations" -> "count",
    "nested.delta_tuples" -> "rows", "recursive.derived_tuples" -> "rows")

  /** Jobs reading at most this many records count as tiny. */
  val TinyJobRecords = 16

  def parse(a: Array[String]): Args = {
    val kv = a.sliding(2, 1).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, sys.error(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble,
      need("trace") match { case "0" => false; case "1" => true; case x => sys.error(s"--trace $x") },
      a.contains("--toy"))
  }

  /** Workload sizes; `--toy` shrinks them for the smoke test. */
  def workload(spark: SparkSession, a: Args): Workload = (a.workload, a.toy) match {
    case ("orders_trickle", false)  => new Orders(spark, 0.02, 10, a.seed)
    case ("orders_trickle", true)   => new Orders(spark, 0.002, 10, a.seed)
    case ("orders_batch", false)    => new Orders(spark, 0.02, 3000, a.seed)
    case ("orders_batch", true)     => new Orders(spark, 0.002, 300, a.seed)
    case ("tc_edge_updates", false) => new Tc(spark, 3, 10, 3, a.seed)
    case ("tc_edge_updates", true)  => new Tc(spark, 3, 4, 2, a.seed)
    case (w, _)                     => sys.error(s"unknown workload $w")
  }

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Nearest-rank percentile. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted
    s(math.min(s.size - 1, math.max(0, math.ceil(p / 100 * s.size).toInt - 1)))
  }

  /** Block-manager bytes of cached and checkpointed RDDs once the context
    * cleaner has released everything unreachable. Polls until two
    * consecutive readings agree.
    */
  def stateBytes(spark: SparkSession): Long = {
    val sc = spark.sparkContext
    var last = -1L
    var stable = 0
    var i = 0
    while (stable < 2 && i < 40) {
      System.gc()
      Thread.sleep(150)
      val b = sc.getRDDStorageInfo.map(r => r.memSize + r.diskSize).sum
      if (b == last) stable += 1 else stable = 0
      last = b
      i += 1
    }
    last
  }

  final class Run(val inst: Instance, val tracer: Tracer, val tag: String) {
    val tickMs: mutable.Buffer[Double] = mutable.Buffer.empty
    var failed = 0
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val t0 = System.nanoTime()
    val spark = Jobs.session("perfbench")
    val sc = spark.sparkContext
    sc.setLogLevel("WARN")
    val sessionS = secondsSince(t0)
    val log = new JobLog
    sc.addSparkListener(log)
    val exit =
      try run(spark, log, a, sessionS)
      finally spark.stop()
    sys.exit(exit)
  }

  def run(spark: SparkSession, log: JobLog, a: Args, sessionS: Double): Int = {
    val sc = spark.sparkContext
    val wl = workload(spark, a)

    // Set-up repeated; the first one runs on a cold JVM, the median does not.
    // Only the instances the loop uses stay reachable, so the state of the
    // others is released before `state_mb` is read.
    val nSetups = if (a.trace) 2 else 3
    val nKept = if (a.trace) 2 else 1
    val setupTimes = mutable.Buffer.empty[Double]
    var kept = Vector.empty[Instance]
    for (i <- 1 to nSetups) {
      val t = System.nanoTime()
      val (inst, outs) = wl.setup()
      setupTimes += secondsSince(t)
      if (i > nSetups - nKept) {
        inst.views.zip(outs).foreach { case (v, o) => v.add(o) }
        kept :+= inst
      }
    }
    val setupS = sessionS + median(setupTimes.toSeq)
    progress(f"session $sessionS%.1f s, set-ups ${setupTimes.map(x => f"$x%.1f").mkString(" ")} s")
    val runs = kept.zipWithIndex.map { case (inst, i) =>
      new Run(inst, new Tracer(sc, enabled = a.trace && i == 1), s"r$i")
    }
    val traced = runs.last.tracer

    // Closed loop: one transaction in flight.
    val maxTicks = if (a.toy) 2 else Int.MaxValue
    var ticks = 0
    var changeRows = 0L
    var aborted = false
    val loopStart = System.nanoTime()
    // A tick starts only if it is expected to end within the window, so the
    // run does not overshoot `--seconds` by a whole slow tick.
    def fits = a.toy || ticks == 0 ||
      secondsSince(loopStart) + median(runs.head.tickMs.toSeq) * runs.size / 1000 <= a.seconds
    while (!aborted && ticks < maxTicks && fits) {
      val c = traced.span("harness.gen")(wl.nextChange())
      val order = if (ticks % 2 == 0) runs else runs.reverse
      order.foreach { r =>
        sc.setLocalProperty(Tags.Tick, s"${r.tag}:$ticks")
        val t = System.nanoTime()
        val outs =
          try Some(r.inst.tick(c, r.tracer))
          catch { case e: Exception =>
            Console.err.println(s"tick $ticks failed: $e"); r.failed += 1; aborted = true; None }
        r.tickMs += (System.nanoTime() - t) / 1e6
        sc.setLocalProperty(Tags.Tick, null)
        outs.foreach(o => r.tracer.span("check")(r.inst.views.zip(o).foreach { case (v, d) => v.add(d) }))
      }
      changeRows += c.rows
      ticks += 1
    }

    progress(s"$ticks ticks in ${secondsSince(loopStart)} s: ${runs.head.tickMs.map(_.round).mkString(" ")}")
    val stateMb = if (a.trace) 0.0 else stateBytes(spark) / 1e6

    // Correctness: integrated outputs against from-scratch evaluation and
    // DuckDB, and the checker itself against perturbed views.
    progress(s"state $stateMb MB")
    val Checked(failures, undetected) =
      if (aborted) Checked(Nil, 0) else wl.check(runs.map(_.inst), traced)
    failures.foreach(f => Console.err.println(s"check failed: $f"))
    if (undetected > 0) Console.err.println(s"checker missed $undetected perturbed view(s)")

    progress("checked")
    val jobs = log.jobs(sc)
    def tickJobs(r: Run): Seq[Int] = {
      val byTick = jobs.flatMap(_.tick).filter(_.startsWith(r.tag + ":")).groupBy(identity)
      (0 until ticks).map(i => byTick.get(s"${r.tag}:$i").map(_.size).getOrElse(0))
    }
    progress(s"jobs per tick: ${runs.map(tickJobs(_).mkString(" ")).mkString(" | ")}")
    val jobsSame = runs.map(tickJobs).distinct.size == 1
    if (!jobsSame) Console.err.println(s"traced and untraced jobs differ: ${runs.map(tickJobs)}")

    val base = runs.head
    val failedTicks = runs.map(_.failed).max + (if (failures.nonEmpty) ticks else 0)
    val attempted = math.max(ticks, 1)
    val correct = failedTicks == 0 && undetected == 0 && jobsSame && ticks > 0

    val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
    if (!a.trace) {
      // Gated: counts that repeat between runs, and the set-up time. Tick
      // wall-clock moves with the load on the host by more than any useful
      // bound, so it is reported on the lines above the JSON, not gated.
      val ms = base.tickMs.toSeq
      metrics("setup_s") = (setupS, "s")
      metrics("jobs_per_tick") = (tickJobs(base).sum.toDouble / ticks, "jobs")
      metrics("state_mb") = (stateMb, "MB")
      println(s"tick_ms_p50 = ${median(ms)} ms (n=${ms.size})")
      // The tail percentile needs ten samples beyond it.
      val tail = Seq(99.9, 99.0, 95.0, 90.0, 75.0, 50.0).find(p => ms.size * (1 - p / 100) >= 10)
      println(tail.map(p => f"tick_ms_tail p$p%s = ${percentile(ms, p)} ms (n=${ms.size})")
        .getOrElse(s"tick_ms_tail: not reported, ${ms.size} ticks < 20"))
      println(s"change_rows_per_s = ${changeRows / (ms.sum / 1000)} rows/s")
      println(s"failed_share = ${failedTicks.toDouble / attempted} ($failedTicks of $attempted ticks)")
    } else {
      for (s <- Spans) {
        val js = jobs.filter(_.span.contains(s))
        val n = math.max(traced.spanMs(s).size, 1).toDouble
        metrics(s"$s.ms") = (traced.spanMs(s).sum / n, "ms")
        metrics(s"$s.jobs") = (js.size / n, "jobs")
        metrics(s"$s.broadcast_jobs") = (js.count(_.broadcast) / n, "jobs")
        metrics(s"$s.tasks") = (js.map(_.tasks).sum / n, "count")
        metrics(s"$s.task_busy_ms") = (js.map(_.busyMs).sum / n, "ms")
        metrics(s"$s.job_ms") = (js.map(_.durationMs).sum / n, "ms")
        metrics(s"$s.shuffle_bytes") = (js.map(_.shuffleBytes).sum / n, "bytes")
        metrics(s"$s.records_read") = (js.map(_.recordsRead).sum / n, "rows")
        metrics(s"$s.tiny_job_share") =
          (if (js.isEmpty) 0.0 else js.count(_.recordsRead <= TinyJobRecords).toDouble / js.size, "ratio")
      }
      for ((c, unit) <- Counters) metrics(c) = (traced.countMean(c), unit)
      metrics("tracing_overhead_ms") = (median(runs.last.tickMs.toSeq) - median(base.tickMs.toSeq), "ms")
    }

    val body = metrics.map { case (k, (v, u)) => s""""$k": {"value": ${json(v)}, "unit": "$u"}""" }
    println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failedTicks, """ +
      s""""metrics": {${body.mkString(", ")}}}""")
    if (correct) 0 else 1
  }

  private val Start = System.nanoTime()

  private def progress(msg: String): Unit =
    Console.err.println(f"[perfbench ${secondsSince(Start)}%6.1f s] $msg")

  private def json(v: Double): String = if (v.isNaN || v.isInfinite) "null" else v.toString
}
