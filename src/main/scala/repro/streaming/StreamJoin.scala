package repro.streaming

import repro.circuit.Op2
import repro.zset.{Trace, ZSet}

/** The relation-to-stream join of §7.6: `T(s, t) = I(s) ↑⋈ t`.
  *
  * `s` carries *changes* to a relation (integrated into state); `t` carries
  * transient data (logs/telemetry) that is matched against the accumulated
  * relation and then discarded — `t` is never stored.
  */
final class StreamRelationJoin(keys: Seq[String]) extends Op2[ZSet, ZSet, ZSet] {
  private val rel = new Trace // I(s)

  def step(ds: ZSet, batch: ZSet): ZSet = {
    rel.append(ds.compact())
    rel.value.join(batch, keys)
  }
}
