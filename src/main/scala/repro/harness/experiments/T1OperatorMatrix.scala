package repro.harness.experiments

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

import repro.core.ZSetOps
import repro.harness.{Changes, Check, Experiment, Report}
import repro.relational.Rel._
import repro.relational.{Incrementalizer, Rel}
import repro.zset.ZSet

/** Experiment T1 — the Table 1 operator matrix: every relational operator
  * is maintained incrementally over a change stream (inserts + deletes) and
  * checked tick-by-tick against the naïve lifted circuit. Reports per-tick
  * cost for both and a correctness verdict.
  */
object T1OperatorMatrix extends Experiment {

  final case class Size(baseRows: Long, ticks: Int)
  type Result = Seq[Row]
  final case class Row(op: String, ticks: Int, incMsPerTick: Double,
                       naiveMsPerTick: Double, viewRows: Long, ok: Boolean)

  val id = "T1"
  val full: Size = Size(baseRows = 50000, ticks = 3)
  val toy: Size = Size(baseRows = 200, ticks = 2)

  def checks(rows: Seq[Row]): Seq[Check] = Seq(Check(
    s"all 10 operators: incremental ≡ naïve lifted (mismatches: ${rows.filterNot(_.ok).map(_.op)})",
    wallClock = false, holds = rows.size == 10 && rows.forall(_.ok)))

  private def operators: Seq[(String, Rel)] = Seq(
    "σ (WHERE)"        -> Select(Table("ta"), "x % 7 < 3"),
    "π (DISTINCT col)" -> Project(Table("ta"), Seq("y")),
    "map (expr)"       -> Project(Table("ta"), Seq("x + y AS s")),
    "∪ (UNION)"        -> Union(Table("ta"), Table("tb")),
    "∪ALL"             -> UnionAll(Table("ta"), Table("tb")),
    "∩ (INTERSECT)"    -> Intersect(Table("ta"), Table("tb")),
    "\\ (EXCEPT)"      -> Except(Table("ta"), Table("tb")),
    "⋈ (JOIN)"         -> Join(Table("ta"), Table("tc"), Seq("y")),
    "▷ (ANTIJOIN)"     -> AntiJoin(Table("ta"), Table("tc"), Seq("y")),
    "distinct"         -> Distinct(UnionAll(Table("ta"), Table("tb"))))

  def run(spark: SparkSession, size: Size): Seq[Row] = {
    import repro.SynthData
    val Size(baseRows, ticks) = size
    val ta = ZSet.fromSet(SynthData.uniformKeys(spark, baseRows, baseRows / 2, seed = 101)
      .select(col("k") as "x", (col("v") * 500).cast("long") as "y"))
    val tb = ZSet.fromSet(SynthData.uniformKeys(spark, baseRows, baseRows / 2, seed = 102)
      .select(col("k") as "x", (col("v") * 500).cast("long") as "y"))
    val tc = ZSet.fromSet(SynthData.uniformKeys(spark, baseRows / 4, 500, seed = 103)
      .select(col("k") as "y", (col("v") * 10000).cast("long") as "z"))
    val inputs = Map("ta" -> ta, "tb" -> tb, "tc" -> tc)

    operators.map { case (name, q) =>
      val needed = Incrementalizer.circuitOf(q).inputs
      val streams = needed.map(n => n -> Changes.stream(inputs(n), ticks,
        initialFrac = 0.7, deleteFrac = 0.15, seed = n.hashCode.toLong)).toMap
      val inc = Incrementalizer.incremental(q)
      val naive = Incrementalizer.naive(q)
      var ok = true
      var incTotal = 0.0
      var naiveTotal = 0.0
      val view = ZSetOps.integrate
      var viewRows = 0L
      for (t <- 0 until ticks) {
        val dmap = streams.map { case (n, s) => n -> s(t) }
        val (dInc, ms1) = Report.timed(inc.step(dmap).compact())
        val (dNaive, ms2) = Report.timed(naive.step(dmap))
        incTotal += ms1; naiveTotal += ms2
        if (!dInc.zequals(dNaive)) ok = false
        viewRows = view.step(dInc).entryCount
      }
      Row(name, ticks, incTotal / ticks, naiveTotal / ticks, viewRows, ok)
    }
  }

  val headers: Seq[String] =
    Seq("operator", "ticks", "inc ms/tick", "naive ms/tick", "|view|", "inc ≡ naive")

  def render(rows: Seq[Row]): Seq[Seq[String]] = rows.map { r =>
    Seq(r.op, r.ticks.toString, Report.f1(r.incMsPerTick), Report.f1(r.naiveMsPerTick),
      r.viewRows.toString, if (r.ok) "✓" else "✗ MISMATCH")
  }

  def emit(rows: Seq[Row]): Unit =
    Report.emit("T1 — Table 1 operator matrix (incremental vs naïve lifted)", headers, render(rows))
}
