package repro.zset

import org.apache.spark.sql.functions.{broadcast, col}

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

  /** Add a delta as given (callers pass compacted ones) and return the value
    * before it, z⁻¹(I) at this tick. Appending a known zero is free.
    */
  def append(d: ZSet): ZSet = {
    val before = valueLike(d)
    if (!d.isKnownZero) {
      state = before.plus(d)
      chunks += 1
      if (chunks >= Trace.ConsolidateEvery) { state = state.compact(); chunks = 0 }
    }
    before
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

  /** `z` restricted to the tuples whose `keys` columns match a tuple of `by`:
    * a left-semi join against the broadcast keys of `by`, the change-sized
    * side — Spark's analogue of an indexed state lookup. A known-zero `z` or
    * `by` gives a known zero.
    */
  def probe(z: ZSet, by: ZSet, keys: Seq[String]): ZSet =
    if (z.isKnownZero) z
    else if (by.isKnownZero) ZSet.empty(z.spark, z.dataSchema)
    else ZSet.raw(z.df.join(broadcast(by.df.select(keys.map(col): _*)), keys, "left_semi"))
}
