package repro.agg

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._

import repro.circuit.Op
import repro.zset.{Trace, ZSet}

/** Aggregation functions over Z-sets (§7.2). COUNT and SUM are *linear*
  * maps from Z[A] into the result group; MIN is not (deletions may need the
  * full set), so its incremental form is brute force over the stored
  * integral — exactly the paper's distinction.
  */
sealed trait AggFunc { def alias: String }
object AggFunc {
  /** a_COUNT(s) = Σ_x s[x] — linear. */
  final case class Count(alias: String = "cnt") extends AggFunc
  /** a_SUM(s) = Σ_x x·s[x] — linear. */
  final case class Sum(col: String, alias: String = "total") extends AggFunc
  /** AVG = SUM/COUNT of a linear pair, divided at output (§7.2's circuit). */
  final case class Avg(col: String, alias: String = "avg") extends AggFunc
  /** MIN — non-linear, incremental only by brute force (§7.2). */
  final case class Min(col: String, alias: String = "mn") extends AggFunc
}

/** GROUP BY-AGGREGATE (§7.4) over the flat encoding of indexed Z-sets
  * (§7.3): the grouping function G_p is the linear operator that tags each
  * tuple with its key columns, so a grouping is just the set of tuples
  * sharing a key.
  */
object GroupAggregate {

  /** The accumulators of an aggregate, each a SUM or MIN of a weighted
    * per-row expression.
    */
  private[agg] def accs(f: AggFunc): Seq[ZSet.Agg] = {
    val w = col(ZSet.W)
    val cnt = ZSet.Agg("__cnt", w)
    f match {
      case AggFunc.Count(_)   => Seq(cnt)
      case AggFunc.Sum(c, _)  => Seq(cnt, ZSet.Agg("__sm", col(c).cast("double") * w))
      case AggFunc.Avg(c, _)  => Seq(cnt, ZSet.Agg("__sm", col(c).cast("double") * w))
      case AggFunc.Min(c, _)  => Seq(cnt, ZSet.Agg("__mn", when(w > 0, col(c)), min = true))
    }
  }

  /** Render the output value column from the accumulators. */
  private[agg] def render(f: AggFunc): Column = f match {
    case AggFunc.Count(_)  => col("__cnt")
    case AggFunc.Sum(_, _) => col("__sm")
    case AggFunc.Avg(_, _) => col("__sm") / col("__cnt")
    case AggFunc.Min(_, _) => col("__mn")
  }

  /** Batch reference: `SELECT keys, f FROM z GROUP BY keys` as a Z-set view
    * (weight 1 per group; empty groups absent). Requires positive input for
    * MIN (set/bag semantics), like SQL. `keys = Nil` is the global aggregate,
    * `GROUP BY ()`: over an empty input its one row has a NULL count and is
    * dropped, so the view is empty.
    */
  def batch(z: ZSet, keys: Seq[String], f: AggFunc): ZSet = {
    val grouped = z.consolidate().aggregate(keys, accs(f)).df
    val rows = grouped
      .where(col("__cnt") =!= 0)
      .select((keys.map(col) :+ (render(f) as f.alias)): _*)
    ZSet.fromSet(rows)
  }
}

/** The incremental GROUP BY-AGGREGATE operator: per tick it aggregates only
  * the *change*, merges it into per-group accumulator state, and emits the
  * view delta (retraction of the old group row + assertion of the new one)
  * for *groupings that changed* — §7.4's "partly incremental" evaluation.
  *
  * The state is one [[Trace]]. For linear aggregates (COUNT/SUM/AVG) it holds
  * the Z-set of accumulator rows `(keys, __cnt[, __sm])`, one per non-empty
  * group; each tick appends the touched groups' new rows minus their old
  * ones. For MIN it holds the input integral projected onto the keys and the
  * MIN column, and the touched groups' minima are recomputed from it — the
  * paper's brute-force fallback. Either
  * way the old output rows are rendered from the state probed by the touched
  * keys, so no copy of the view is kept. A local change finds the touched
  * groups' state in the trace's driver-side index when the state fits it
  * (one Spark job, the index's build, on the first such change), else by one
  * bounded probe that scans the state ([[Trace.bounded]]); the per-row
  * accumulator projections fold into local relations and the groups are
  * merged on the driver.
  *
  * A global aggregate (§7.2) is the grouping by the empty key, `keys = Nil`:
  * every non-zero change touches the one group, and the probe returns the
  * whole state.
  */
final class IncrementalGroupAggregate(keys: Seq[String], f: AggFunc)
    extends Op[ZSet, ZSet] {
  private val W = ZSet.W
  private val state = new Trace

  def step(d: ZSet): ZSet =
    if (d.isKnownZero) ZSet.empty(d.spark, GroupAggregate.batch(d, keys, f).dataSchema)
    else {
      // The change of the accumulator rows of the touched groups.
      val accChange = f match {
        case AggFunc.Min(c, _) =>
          // MIN reads only the keys and its column, and π commutes with I:
          // the trace keeps the change's projection onto them. Only names
          // that are columns are projected: a projected field path ("s.v")
          // would be renamed to its last part.
          val cols = (keys :+ c).distinct
          val narrow = cols != d.dataCols && cols.forall(d.dataCols.contains)
          val dc = (if (narrow) d.project(cols: _*) else d).compact()
          val old = probe(dc)
          state.append(dc)
          accumulate(old.plus(dc).consolidate()).minus(accumulate(old.consolidate()))
        case _ =>
          val dAcc = accumulate(d)
          val old = probe(dAcc).consolidate()
          val change = merge(old, dAcc).minus(old).compact()
          state.append(change)
          change
      }
      ZSet.raw(accChange.df
        .where(col("__cnt") =!= 0)
        .select((keys.map(col) :+ (GroupAggregate.render(f) as f.alias) :+ col(W)): _*))
        .compact()
    }

  /** The state's entries, bounded without a Spark job ([[Trace.entryBound]]). */
  def stateEntries: Option[Long] = state.entryBound

  /** The state of the groups `by` touches: none before the first append. */
  private def probe(by: ZSet): ZSet =
    if (state.isEmpty) ZSet.empty(by.spark, by.dataSchema) else state.probe(by, keys)

  /** One accumulator row per group of `z`, weight 1. */
  private def accumulate(z: ZSet): ZSet = z.aggregate(keys, GroupAggregate.accs(f))

  /** The new accumulator rows of the touched groups: old rows plus the
    * change's, summed with their weights; groups whose count reaches 0 drop.
    */
  private def merge(old: ZSet, dAcc: ZSet): ZSet =
    old.plus(dAcc)
      .aggregate(keys, old.dataCols.filterNot(keys.contains).map(a => ZSet.Agg(a, col(a) * col(W))))
      .filterZ(col("__cnt") =!= 0)
}
