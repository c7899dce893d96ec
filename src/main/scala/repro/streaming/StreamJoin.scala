package repro.streaming

import repro.circuit.Op2
import repro.core.IncrementalBilinear
import repro.zset.{Trace, ZSet}

/** The relation-to-stream join of §7.6: `T(s, t) = I(s) ↑⋈ t`.
  *
  * `s` carries *changes* to a relation (integrated into state); `t` carries
  * transient data (logs/telemetry) that is matched against the accumulated
  * relation and then discarded — `t` is never stored. Like every state ×
  * change product, the join probes the relation with the batch's keys
  * ([[IncrementalBilinear.probed]]): none for an empty batch, and for a
  * local batch against a Spark-held relation the lookup in the relation
  * trace's index (one Spark job to build it, on the first such batch), or
  * one bounded probe when the relation is too large to index.
  */
final class StreamRelationJoin(keys: Seq[String]) extends Op2[ZSet, ZSet, ZSet] {
  private val rel = new Trace // I(s)

  def step(ds: ZSet, batch: ZSet): ZSet = {
    rel.append(ds.compact())
    IncrementalBilinear.probed(rel, batch, keys)(_.join(_, keys))
  }
}
