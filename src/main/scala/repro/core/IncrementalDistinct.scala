package repro.core

import org.apache.spark.sql.functions._

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
    * the integral is first probed with d's tuples, then per-tuple old/new
    * multiplicities decide the sign flips. A known-zero `d` gives a known
    * zero.
    */
  def h(i: ZSet, d: ZSet): ZSet =
    if (d.isKnownZero) d
    else {
      val W = ZSet.W
      val keys = d.dataCols
      val iMatched = Trace.probe(i, d, keys).consolidate().df.withColumnRenamed(W, "__wi")
      val joined = d.consolidate().df.join(broadcast(iMatched), keys, "left_outer")
      val old = coalesce(col("__wi"), lit(0L))
      val nw  = old + col(W)
      val hWeight = when(old > 0 && nw <= 0, -1L)
        .when(old <= 0 && nw > 0, 1L)
        .otherwise(0L)
      ZSet.raw(
        joined
          .withColumn(W, hWeight)
          .drop("__wi")
          .where(col(W) =!= 0))
    }
}
