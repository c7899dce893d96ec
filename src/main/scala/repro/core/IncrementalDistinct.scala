package repro.core

import repro.circuit.Op
import repro.zset.{Trace, ZSet}

/** The efficient incremental distinct of Proposition 4.7.
  *
  * {{{
  *   (↑distinct)^Δ(d)[t] = H(i, d)    where  i = z⁻¹(I(d))
  *   H(i, d)[x] = -1  if i[x] > 0 and (i+d)[x] ≤ 0
  *                 1  if i[x] ≤ 0 and (i+d)[x] > 0
  *                 0  otherwise
  * }}}
  * Only multiplicities of tuples present in the change `d` can flip sign, so
  * the evaluation probes the stored integral with d's support before
  * aggregating; the state is a [[Trace]]. Time O(|d|) per tick (plus the
  * unavoidable state scan), space O(R) — exactly §4.5's accounting.
  */
final class IncrementalDistinct extends Op[ZSet, ZSet] {
  private val i = new Trace // I(d)

  def step(d: ZSet): ZSet = {
    val dc = d.compact()
    IncrementalDistinct.h(i.append(dc), dc)
  }
}

object IncrementalDistinct {
  /** The H function of Proposition 4.7, evaluated only on the support of `d`:
    * the integral is first probed with d's tuples, giving `im`, and then
    * H = distinct(im + d) − distinct(im), since supp(im) ⊆ supp(d). With a
    * local `d` and a bounded probe this runs on the driver. A known-zero `d`
    * gives a known zero.
    */
  def h(i: ZSet, d: ZSet): ZSet =
    if (d.isKnownZero) d
    else {
      val im = Trace.probe(i, d, d.dataCols)
      d.plus(im).distinctZ.minus(im.distinctZ)
    }
}
