package repro.harness.experiments

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

import repro.SynthData
import repro.harness.{Check, Experiment, Report}
import repro.relational.Rel._
import repro.relational.{Incrementalizer, Rel}
import repro.zset.ZSet

/** Experiment E1 — §4.4 example query / §4.5 complexity claim.
  *
  * The maintained view is the §4.4 shape (σ → ⋈ → π → distinct) over
  * TPC-H-lite orders ⋈ customer. Both runners are bulk-loaded with the same
  * initial snapshot, then one change tick of size C is applied; we report the
  * time and rows-touched of the incremental circuit (Algorithm 4.8, work
  * O(C)) against the naïve lifted circuit (step 4 only, work O(R)).
  */
object E1RelationalIvm extends Experiment {

  final case class Size(sf: Double, deltaFracs: Seq[Double])
  type Result = Seq[Row]
  final case class Row(deltaRows: Long, baseRows: Long,
                       incMs: Double, naiveMs: Double, incOut: Long)

  val id = "E1"
  val full: Size = Size(sf = 0.1, deltaFracs = Seq(0.0001, 0.001, 0.01, 0.1))
  val toy: Size = Size(sf = 0.002, deltaFracs = Seq(0.001, 0.01, 0.1))

  /** §4.5: the incremental circuit wins when C ≪ R, and its advantage
    * shrinks as C → R.
    */
  def checks(rows: Seq[Row]): Seq[Check] = {
    val speedups = rows.map(r => r.naiveMs / r.incMs)
    Seq(
      Check(s"at the smallest delta incremental (${rows.head.incMs} ms) is faster than naïve " +
        s"(${rows.head.naiveMs} ms)", wallClock = true, holds = rows.head.incMs < rows.head.naiveMs),
      Check(s"the speedup does not grow as C → R: $speedups", wallClock = true,
        holds = speedups.head >= speedups.last * 0.8))
  }

  val query: Rel =
    Project(
      Select(
        Join(Project(Table("orders"), Seq("o_orderkey", "o_custkey AS c_custkey", "o_totalprice")),
             Table("customer"), Seq("c_custkey")),
        "o_totalprice > 100000"),
      Seq("o_orderkey", "c_mktsegment"))

  def run(spark: SparkSession, size: Size): Seq[Row] = {
    val Size(sf, deltaFracs) = size
    val ordersAll = SynthData.orders(spark, sf)
      .select("o_orderkey", "o_custkey", "o_totalprice")
      .localCheckpoint()
    val customer = ZSet.fromSet(SynthData.customer(spark, sf).select("c_custkey", "c_mktsegment"))
    val nOrders = ordersAll.count()

    deltaFracs.map { frac =>
      val deltaN = math.max(1L, (nOrders * frac).toLong)
      // Initial snapshot: everything except the last 3·deltaN orders; the
      // remainder arrives as three measured change ticks of deltaN each.
      val cut = nOrders - 3 * deltaN
      val init = ZSet.fromSet(ordersAll.where(col("o_orderkey") <= cut))
      val deltas = (0 until 3).map { r =>
        ZSet.fromSet(ordersAll.where(
          col("o_orderkey") > cut + r * deltaN && col("o_orderkey") <= cut + (r + 1) * deltaN))
          .compact()
      }
      val emptyCust = ZSet.empty(spark, customer.dataSchema)

      val inc = Incrementalizer.incremental(query)
      val naive = Incrementalizer.naive(query)
      val emptyOrders = ZSet.empty(spark, init.dataSchema)
      // Bulk load (tick 0) both runners, then a warm-up tick, forcing evaluation.
      inc.step(Map("orders" -> init, "customer" -> customer)).entryCount
      naive.step(Map("orders" -> init, "customer" -> customer)).entryCount
      inc.step(Map("orders" -> emptyOrders, "customer" -> emptyCust)).entryCount
      naive.step(Map("orders" -> emptyOrders, "customer" -> emptyCust)).entryCount
      // Best of three measured change ticks.
      val (incOut, incMs) = Report.timedBest(deltas.map(d => () =>
        inc.step(Map("orders" -> d, "customer" -> emptyCust)).physicalCount))
      val (_, naiveMs) = Report.timedBest(deltas.map(d => () =>
        naive.step(Map("orders" -> d, "customer" -> emptyCust)).physicalCount))
      Row(deltaN, nOrders, incMs, naiveMs, incOut)
    }
  }

  val headers: Seq[String] =
    Seq("ΔC (rows)", "R (rows)", "C/R", "incremental ms", "naive-lifted ms", "speedup", "Δview rows")

  def render(rows: Seq[Row]): Seq[Seq[String]] = rows.map { r =>
    Seq(r.deltaRows.toString, r.baseRows.toString, f"${r.deltaRows.toDouble / r.baseRows}%.5f",
      Report.f1(r.incMs), Report.f1(r.naiveMs), Report.f2(r.naiveMs / r.incMs), r.incOut.toString)
  }

  def emit(rows: Seq[Row]): Unit =
    Report.emit("E1 — incremental view maintenance (§4.4 query, §4.5 claim)", headers, render(rows))
}
