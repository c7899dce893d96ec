package repro.zset

import org.apache.spark.sql.functions.{broadcast, col, lit}

import repro.circuit.Op

/** The integral I (Definition 2.19) of a Z-set stream, kept append-only: the
  * state of every stateful Z-set operator, in the style of DBSP's runtime
  * traces and differential dataflow's arrangements. Each appended delta is
  * kept as its own chunk, so an append costs O(|delta|); the chunks are
  * consolidated only on every `ConsolidateEvery`-th append of a non-zero
  * delta, amortizing the O(R) rewrite. This matches the paper's cost model
  * for stateful operators (§4.5): O(C) time per tick, O(R) space. The value
  * may be unconsolidated; every Z-set operator is indifferent to that.
  *
  * A trace takes its schema from the first Z-set it is given (appended or
  * probed by); until then it is the zero of that schema. A bulk load is just
  * the first append (§4.5: the stream's first transaction).
  */
final class Trace {
  private var state: ZSet = _
  private var chunks = 0

  private def valueLike(z: ZSet): ZSet = {
    if (state == null) state = ZSet.empty(z.spark, z.dataSchema)
    state
  }

  /** Add a delta as given (a flat operator's compacted change, or an outer
    * sum the nested bilinear rule passes uncompacted) and return the value
    * before it, z⁻¹(I) at this tick. Appending a known zero is free, and
    * appending a local delta to a Spark-held value is a lazy union that
    * costs no job until the next consolidation.
    *
    * A consolidating append returns the value before as the consolidated
    * state minus `d` (a lazy union), not as the superseded chunks: a caller
    * may keep the value it is given (a nested operator's row state keeps it
    * until the next outer tick), and the superseded value's checkpoint is
    * released only when nothing refers to it. So a trace retains one
    * checkpoint, whichever tick consolidated last.
    */
  def append(d: ZSet): ZSet = {
    val before = valueLike(d)
    if (d.isKnownZero) before
    else {
      state = before.plus(d)
      chunks += 1
      if (chunks < Trace.ConsolidateEvery) before
      else {
        state = state.compact()
        chunks = 0
        state.minus(d)
      }
    }
  }

  /** The integral so far. */
  def value: ZSet = {
    require(state != null, "value of a trace that was never given a Z-set")
    state
  }

  /** The value restricted to the tuples whose `keys` columns match a tuple
    * of `by` (see [[Trace.probe]]).
    */
  def probe(by: ZSet, keys: Seq[String]): ZSet = Trace.probe(valueLike(by), by, keys)
}

object Trace {
  /** Appends between two consolidations of a trace. */
  private val ConsolidateEvery = 16

  /** I over a Z-set stream, kept in a trace: each step appends its input
    * and returns the integral, so a step costs no job until a
    * consolidation.
    */
  def integral: Op[ZSet, ZSet] = new Op[ZSet, ZSet] {
    private val t = new Trace
    def step(d: ZSet): ZSet = { t.append(d); t.value }
  }

  /** z⁻¹ ∘ I over a Z-set stream, kept in a trace: each step appends its
    * input and returns the integral before it.
    */
  def pastSum: Op[ZSet, ZSet] = new Op[ZSet, ZSet] {
    private val t = new Trace
    def step(d: ZSet): ZSet = t.append(d)
  }

  /** `z` restricted to the tuples whose `keys` columns match a tuple of `by`
    * (null keys match null, as they group): the bounded probe when it
    * applies (see [[bounded]]), else a left-semi join against the broadcast
    * keys of `by`, the change-sized side — Spark's analogue of an indexed
    * state lookup.
    */
  def probe(z: ZSet, by: ZSet, keys: Seq[String]): ZSet =
    bounded(z, by, keys).getOrElse(semiJoin(z, by, keys))

  /** The probe as a local Z-set: a known-zero `z` or `by` gives a known
    * zero; a local `by` restricts `z` on the driver if `z` is local, else by
    * one Spark job that filters `z` with an `isin` literal of by's keys and
    * collects the matches ([[ZSet.restrictTo]]). `None` when `by` is not
    * local or more than `ZSet.LocalLimit` rows match.
    */
  def bounded(z: ZSet, by: ZSet, keys: Seq[String]): Option[ZSet] =
    if (z.isKnownZero) Some(z)
    else if (by.isKnownZero) Some(ZSet.empty(z.spark, z.dataSchema))
    else if (by.isLocal) z.restrictTo(by, keys)
    else None

  /** The probe as a broadcast left-semi join, null keys matching null: a
    * lazy Spark plan.
    */
  def semiJoin(z: ZSet, by: ZSet, keys: Seq[String]): ZSet = {
    val probeKeys = by.df.select(keys.map(k => col(k) as s"__p_$k"): _*)
    val on = keys.map(k => z.df(k) <=> col(s"__p_$k")).reduceOption(_ && _).getOrElse(lit(true))
    ZSet.raw(z.df.join(broadcast(probeKeys), on, "left_semi"))
  }
}
