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
  * A trace takes its schema from the first Z-set appended to it; until then
  * it is a zero of unknown schema ([[isEmpty]]), which cannot be probed. A
  * bulk load is just the first append (§4.5: the stream's first
  * transaction).
  *
  * Index: a Spark-held state of at most `IndexLimit` entries is also kept
  * on the driver as a hash index of its consolidated entries by the columns
  * it is probed on ([[ZSet.Index]], after differential dataflow's
  * arrangements), so a local change finds its matches without a Spark job.
  * The index is built by the first probe by a local change once the trace
  * knows, without a job, that the state fits: the count of its last
  * checkpoint plus the counts of the chunks appended since. Building it is
  * one `collect` of the state, in place of that probe's job. A local append
  * updates it in O(|delta|); an append Spark holds drops it. The Spark copy
  * stays the value: appends, consolidation and `value` are unchanged.
  */
final class Trace {
  private var state: ZSet = _
  private var chunks = 0
  // At least the state's entry count, known without a job (see "Index").
  private var bound: Option[Long] = Some(0L)
  private var index: Option[ZSet.Index] = None

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
    if (state == null) state = ZSet.empty(d.spark, d.dataSchema)
    val before = state
    if (d.isKnownZero) before
    else {
      state = before.plus(d)
      bound = for (n <- bound; m <- d.knownSize) yield n + m
      index = index.filter(i => i.add(d) && i.size <= Trace.IndexLimit)
      chunks += 1
      if (chunks < Trace.ConsolidateEvery) before
      else {
        state = state.compact()
        bound = state.knownSize
        if (state.isLocal) index = None
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

  /** Known to be zero without a Spark job: never given a Z-set, or its
    * value a known zero.
    */
  def isEmpty: Boolean = state == null || state.isKnownZero

  /** The value restricted to the tuples whose `keys` columns match a tuple
    * of `by`: [[bounded]] when it applies, else the broadcast semi-join
    * ([[Trace.semiJoin]]).
    */
  def probe(by: ZSet, keys: Seq[String]): ZSet = bounded(by, keys).getOrElse(Trace.semiJoin(value, by, keys))

  /** The probe as a local Z-set, `None` when `by` is not local or more than
    * `ZSet.LocalLimit` tuples match. A local `by` against a Spark-held
    * value with keys is answered by the index, built here if the state is
    * known to fit; without one, it is [[Trace.bounded]]'s one-job probe.
    */
  def bounded(by: ZSet, keys: Seq[String]): Option[ZSet] = {
    val v = value
    if (v.isLocal || !by.isLocal || by.isKnownZero || keys.isEmpty) Trace.bounded(v, by, keys)
    else {
      index = index.map(_.on(keys)).orElse(bound.filter(_ <= Trace.IndexLimit).flatMap(_ => v.index(keys)))
      index.fold(Trace.bounded(v, by, keys))(_.restrictTo(by, v.df))
    }
  }
}

object Trace {
  /** Appends between two consolidations of a trace. */
  private val ConsolidateEvery = 16

  /** The most entries a trace's index holds: the largest power of two at
    * which building it, one `collect` of the state, costs about the bounded
    * probe it replaces (75 ms at 65536 rows, 354 ms at 131072; Spark 4.1.2,
    * `local[4]`). An index takes about 160 bytes of driver heap per entry,
    * 10.7 MB at the limit (DESIGN.md, mechanism 4). It covers the 30k-row
    * states of `orders_trickle` and leaves E2/E3's 1M-row states in Spark.
    */
  private[repro] val IndexLimit = 65536

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
    * applies (see [[bounded]]), else the broadcast semi-join of
    * [[semiJoin]].
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

  /** The probe as a left-semi join against the broadcast keys of `by`, null
    * keys matching null: a lazy Spark plan, taken when `by` is not local or
    * the bounded probe matches more than `ZSet.LocalLimit` rows.
    */
  def semiJoin(z: ZSet, by: ZSet, keys: Seq[String]): ZSet = {
    val probeKeys = by.df.select(keys.map(k => col(k) as s"__p_$k"): _*)
    val on = keys.map(k => z.df(k) <=> col(s"__p_$k")).reduceOption(_ && _).getOrElse(lit(true))
    ZSet.raw(z.df.join(broadcast(probeKeys), on, "left_semi"))
  }
}
