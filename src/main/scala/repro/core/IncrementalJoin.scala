package repro.core

import repro.circuit.Op2
import repro.zset.{Trace, ZSet}

/** The efficient incremental form of a bilinear operator × (Theorem 3.4):
  * {{{
  *   Δ(a × b) = Δa × Δb + z⁻¹(I(a)) × Δb + Δa × z⁻¹(I(b))
  * }}}
  * The two delayed integrals are the operator's state (space O(R), §4.5),
  * kept in [[Trace]]s so each tick costs O(C): the change is compacted, the
  * state is not rewritten. Each delta-vs-state product broadcasts the change
  * side — Spark's analogue of an indexed state lookup.
  */
sealed abstract class IncrementalBilinear(times: (ZSet, ZSet) => ZSet)
    extends Op2[ZSet, ZSet, ZSet] {
  private val ia = new Trace // I(a)
  private val ib = new Trace // I(b)

  def step(da: ZSet, db: ZSet): ZSet = {
    val dac = da.compact()
    val dbc = db.compact()
    val (a, b) = (ia.append(dac), ib.append(dbc))
    times(dac.broadcastHint, dbc)
      .plus(times(a, dbc.broadcastHint))
      .plus(times(dac.broadcastHint, b))
  }
}

/** The incremental equi-join ⋈ on the shared `keys` columns. */
final class IncrementalJoin(keys: Seq[String]) extends IncrementalBilinear(_.join(_, keys))

/** The incremental Cartesian product ×. */
final class IncrementalCartesian extends IncrementalBilinear(_.cartesian(_))
