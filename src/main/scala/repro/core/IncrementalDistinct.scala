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
  * each tick probes the stored integral, a [[Trace]], with d's support
  * before appending d, and aggregates only the matches. A local change finds
  * them in the trace's driver-side index when the integral fits it, else by
  * one bounded probe that scans the integral. Time O(|d|) per tick, space
  * O(R) — exactly §4.5's accounting.
  */
final class IncrementalDistinct extends Op[ZSet, ZSet] {
  private val i = new Trace // I(d)

  def step(d: ZSet): ZSet = {
    val dc = d.compact()
    val im = if (i.isEmpty) ZSet.empty(dc.spark, dc.dataSchema) else i.probe(dc, dc.dataCols)
    i.append(dc)
    IncrementalDistinct.h(im, dc)
  }
}

object IncrementalDistinct {
  /** The H function of Proposition 4.7 given `im`, the integral probed with
    * d's tuples (the whole integral will do): H = distinct(im + d) −
    * distinct(im), since H is zero off supp(d). With a local `d` and a
    * bounded probe this runs on the driver. A known-zero `d` gives a known
    * zero.
    */
  def h(im: ZSet, d: ZSet): ZSet =
    if (d.isKnownZero) d else d.plus(im).distinctZ.minus(im.distinctZ)
}
