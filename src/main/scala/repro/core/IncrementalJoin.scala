package repro.core

import repro.circuit.Op2
import repro.zset.{Trace, ZSet}

/** The efficient incremental form of a bilinear operator × (Theorem 3.4):
  * {{{
  *   Δ(a × b) = Δa × Δb + z⁻¹(I(a)) × Δb + Δa × z⁻¹(I(b))
  * }}}
  * The two delayed integrals are the operator's state (space O(R), §4.5),
  * kept in [[Trace]]s so each tick costs O(C): the change is compacted, the
  * state is not rewritten. In each delta-vs-state product the state is first
  * probed with the change's `keys` (all of it for ×); when the change is
  * local and the probe bounded, the product runs on the driver after that
  * one job. Otherwise the change side is broadcast — Spark's analogue of an
  * indexed state lookup.
  */
sealed abstract class IncrementalBilinear(keys: Seq[String], times: (ZSet, ZSet) => ZSet)
    extends Op2[ZSet, ZSet, ZSet] {
  private val ia = new Trace // I(a)
  private val ib = new Trace // I(b)

  def step(da: ZSet, db: ZSet): ZSet = {
    val dac = da.compact()
    val dbc = db.compact()
    val (a, b) = (ia.append(dac), ib.append(dbc))
    times(dac.broadcastHint, dbc)
      .plus(IncrementalBilinear.probed(a, dbc, keys)(times))
      .plus(IncrementalBilinear.probed(b, dac, keys)((s, c) => times(c, s)))
  }
}

object IncrementalBilinear {
  /** The product of a `state` (an integral) with a `change`, `times` taking
    * them in that order: the state probed with the change's `keys` and the
    * product finished on the driver when the probe is bounded
    * ([[Trace.bounded]]), else the product with the change side broadcast.
    */
  def probed(state: ZSet, change: ZSet, keys: Seq[String])(times: (ZSet, ZSet) => ZSet): ZSet =
    Trace.bounded(state, change, keys).fold(times(state, change.broadcastHint))(times(_, change))
}

/** The incremental equi-join ⋈ on the shared `keys` columns. */
final class IncrementalJoin(keys: Seq[String]) extends IncrementalBilinear(keys, _.join(_, keys))

/** The incremental Cartesian product ×. */
final class IncrementalCartesian extends IncrementalBilinear(Nil, _.cartesian(_))
