package repro.harness.experiments

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

import repro.SynthData
import repro.agg.{AggFunc, GroupAggregate, IncrementalGroupAggregate}
import repro.core.ZSetOps
import repro.harness.{Check, Experiment, Report}
import repro.streaming.WindowIntegrate
import repro.zset.{Trace, ZSet}

/** Experiment E6 — §7.2–7.4: incremental GROUP BY-AGGREGATE. Linear
  * aggregates (SUM) are maintained from per-group accumulators; MIN needs
  * the stored integral of the touched groups (brute force); both are
  * compared against a full batch recompute on every change. The rows each
  * side aggregates are counted as in E3: the incremental tick aggregates the
  * change plus the rows its probe of the state before it returns (SUM: the
  * touched groups' accumulator rows; MIN: their rows of the integral), the
  * recompute every row of the integral.
  */
object E6Aggregates extends Experiment {

  final case class Size(sf: Double, deltaSizes: Seq[Long])
  type Result = Seq[Row]
  final case class Row(agg: String, deltaRows: Long, baseRows: Long, groups: Long,
                       incMs: Double, fullMs: Double, aggRowsInc: Long, aggRowsFull: Long)

  val id = "E6"
  val full: Size = Size(sf = 0.2, deltaSizes = Seq(100, 1000, 10000))
  val toy: Size = Size(sf = 0.002, deltaSizes = Seq(10, 100))

  def checks(rows: Seq[Row]): Seq[Check] = {
    val small = rows.filter(_.agg.startsWith("SUM")).minBy(_.deltaRows)
    Seq(
      Check(s"at the smallest delta the recompute aggregates ${small.aggRowsFull} rows, ≥ 20 × " +
        s"the incremental SUM's ${small.aggRowsInc}", wallClock = false,
        holds = small.aggRowsFull / small.aggRowsInc >= 20),
      Check(s"at the smallest delta incremental SUM (${small.incMs} ms) is faster than the " +
        s"recompute (${small.fullMs} ms)", wallClock = true, holds = small.incMs < small.fullMs))
  }

  def run(spark: SparkSession, size: Size): Seq[Row] = {
    val Size(sf, deltaSizes) = size
    val li = SynthData.lineitem(spark, sf)
      .select("l_partkey", "l_quantity", "l_orderkey")
      .localCheckpoint()
    val n = li.count()
    val keys = Seq("l_partkey")

    (for (c <- deltaSizes; (name, f) <- Seq(
        ("SUM (linear)", AggFunc.Sum("l_quantity")),
        ("MIN (brute force)", AggFunc.Min("l_quantity")))) yield {
      val init = ZSet.fromBag(li)
      // Measured changes: three disjoint fresh batches of c rows each.
      val deltas = (0 until 3).map { r =>
        ZSet.fromBag(SynthData.lineitem(spark, sf = c.toDouble / 6e6, seed = 100 + r)
          .select("l_partkey", "l_quantity", "l_orderkey")).compact()
      }
      val inc = new IncrementalGroupAggregate(keys, f)
      inc.step(init).entryCount                              // bulk load
      inc.step(ZSet.empty(spark, init.dataSchema)).entryCount // warm-up
      val (_, incMs) = Report.timedBest(deltas.map(d => () => inc.step(d).physicalCount))
      val full = deltas.foldLeft(init)(_ plus _).compact()
      val (groups, fullMs) = Report.timedBest(Seq.fill(2)(() =>
        GroupAggregate.batch(full, keys, f).physicalCount))
      // Work accounting, outside the timed region: the most over the ticks.
      val aggRowsInc = deltas.zip(deltas.scanLeft(init)(_ plus _)).map { case (d, before) =>
        val state = f match {
          case _: AggFunc.Min => before
          case _              => GroupAggregate.batch(before, keys, f)
        }
        d.entryCount + Trace.probe(state, d, keys).physicalCount
      }.max
      Row(name, c, n, groups, incMs, fullMs, aggRowsInc, full.entryCount)
    }).toSeq
  }

  val headers: Seq[String] =
    Seq("aggregate", "ΔC (rows)", "R (rows)", "groups", "incremental ms", "recompute ms", "speedup",
      "agg rows (inc)", "agg rows (full)")

  def render(rows: Seq[Row]): Seq[Seq[String]] = rows.map { r =>
    Seq(r.agg, r.deltaRows.toString, r.baseRows.toString, r.groups.toString,
      Report.f1(r.incMs), Report.f1(r.fullMs), Report.f2(r.fullMs / r.incMs),
      r.aggRowsInc.toString, r.aggRowsFull.toString)
  }

  def emit(rows: Seq[Row]): Unit =
    Report.emit("E6 — incremental GROUP BY aggregates (§7.2–7.4)", headers, render(rows))
}

/** Experiment E7 — §7.6.1: window queries with W pushed inside integration.
  * Events stream in with monotonically increasing timestamps; the windowed
  * circuit's state stays bounded at the window size while the unbounded
  * integral grows linearly — same output, constant-ish per-tick cost.
  */
object E7Window extends Experiment {

  final case class Size(ticks: Int, rowsPerTick: Long, width: Double)
  type Result = Seq[Row]
  final case class Row(tick: Int, arrived: Long, windowState: Long, integralRows: Long,
                       windowMs: Double, bruteMs: Double)

  val id = "E7"
  val full: Size = Size(ticks = 8, rowsPerTick = 20000, width = 25.0)
  val toy: Size = Size(ticks = 6, rowsPerTick = 200, width = 25.0)

  /** The integral holds every event ever seen; the window state (width 25,
    * about 2.5 ticks) stays well below it, and the window's per-tick cost
    * does not grow with history (last tick against the first after warm-up).
    */
  def checks(rows: Seq[Row]): Seq[Check] = {
    val (last, warm) = (rows.last, rows.drop(2))
    Seq(
      Check(s"window state ${last.windowState} < integral ${last.integralRows} / 2", wallClock = false,
        holds = last.windowState < last.integralRows / 2),
      Check(s"the last window tick (${warm.last.windowMs} ms) is < 5 × the first after warm-up " +
        s"(${warm.head.windowMs} ms) + 2000 ms", wallClock = true,
        holds = warm.last.windowMs < warm.head.windowMs * 5 + 2000))
  }

  def run(spark: SparkSession, size: Size): Seq[Row] = {
    val Size(ticks, rowsPerTick, width) = size
    val w = new WindowIntegrate("ts", width)
    val integrate = ZSetOps.integrate
    (0 until ticks).map { t =>
      val theta = (t + 1).toDouble * 10
      val d = ZSet.fromBag(
        SynthData.uniformKeys(spark, rowsPerTick, nKeys = 1000, seed = t)
          .select((lit(theta - 10) + col("v") * 10) as "ts", col("k") as "v"))
        .compact()
      val (st, windowMs) = Report.timed { w.step(d, theta); w.stateSize }
      val integral = integrate.step(d)
      val (_, bruteMs) = Report.timed(
        WindowIntegrate.bruteForce(integral, "ts", width, theta).entryCount)
      Row(t, (t + 1) * rowsPerTick, st, integral.entryCount, windowMs, bruteMs)
    }
  }

  val headers: Seq[String] =
    Seq("tick", "events so far", "window state rows", "integral rows (brute)", "window ms", "brute ms")

  def render(rows: Seq[Row]): Seq[Seq[String]] = rows.map { r =>
    Seq(r.tick.toString, r.arrived.toString, r.windowState.toString,
      r.integralRows.toString, Report.f1(r.windowMs), Report.f1(r.bruteMs))
  }

  def emit(rows: Seq[Row]): Unit =
    Report.emit("E7 — bounded-state window queries (§7.6.1)", headers, render(rows))
}
