package repro.zset

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.types.StructType

/** An integral (I) maintained append-only: each added delta is materialized
  * on its own — O(|delta|) per tick — and the chunks are consolidated only
  * every `consolidateEvery` appends, amortizing the O(R) rewrite instead of
  * paying it on every tick. This matches the paper's cost model for stateful
  * operators (§4.5): O(C) time per tick, O(R) space.
  *
  * `value` is the current integral as an (possibly unconsolidated) Z-set —
  * all Z-set operators are indifferent to the representation.
  */
final class Accumulator private (
    private var state: ZSet,
    consolidateEvery: Int) {

  private var pendingChunks = 0

  def value: ZSet = state

  /** Add a change as given: the delta is not compacted here (callers pass
    * compacted ones), and the state only on every `consolidateEvery`-th add.
    */
  def add(d: ZSet): Unit = {
    state = state.plus(d)
    pendingChunks += 1
    if (pendingChunks >= consolidateEvery) {
      state = state.compact()
      pendingChunks = 0
    }
  }
}

object Accumulator {
  val DefaultConsolidateEvery = 16

  def empty(spark: SparkSession, schema: StructType,
            consolidateEvery: Int = DefaultConsolidateEvery): Accumulator =
    new Accumulator(ZSet.empty(spark, schema), consolidateEvery)

  def of(initial: ZSet, consolidateEvery: Int = DefaultConsolidateEvery): Accumulator =
    new Accumulator(initial, consolidateEvery)
}
