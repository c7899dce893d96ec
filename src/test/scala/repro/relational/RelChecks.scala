package repro.relational

import repro.harness.Changes
import repro.zset.ZSet
import repro.{Oracle, SparkSpec}

/** Shared validation drivers for relational circuits. */
trait RelChecks { self: SparkSpec =>

  /** Batch: circuit output (as a set) must equal DuckDB on the same inputs. */
  def oracleCheck(q: Rel, sql: String, tables: (String, ZSet)*): Unit = {
    val out = Incrementalizer.batch(q, tables.toMap).toSetDF
    Oracle.assertEquivalent(out, sql, tables.map { case (n, z) => n -> z.toSetDF }: _*)
  }

  /** Stream the inputs (with deletions), check incremental ≡ naïve lifted per
    * tick, and integral(deltas) ≡ batch(final snapshot). Returns the final
    * integrated output for further checks.
    */
  def incrementalCheck(q: Rel, ticks: Int, deleteFrac: Double,
                       inputs: (String, ZSet)*): ZSet =
    incrementalCheckWith(q, ticks, deleteFrac, inputs: _*)((_, _) => ())

  /** [[incrementalCheck]], also handing `atTick` the integrated output and
    * the input snapshots after every tick.
    */
  def incrementalCheckWith(q: Rel, ticks: Int, deleteFrac: Double, inputs: (String, ZSet)*)(
      atTick: (ZSet, Map[String, ZSet]) => Unit): ZSet = {
    val streams = inputs.map { case (n, z) =>
      n -> Changes.stream(z, ticks, initialFrac = 0.5, deleteFrac = deleteFrac,
        seed = n.hashCode.toLong)
    }
    val incr = Incrementalizer.incremental(q)
    val naive = Incrementalizer.naive(q)
    var outAcc: Option[ZSet] = None
    val inAcc = scala.collection.mutable.Map.empty[String, ZSet]
    for (t <- 0 until ticks) {
      val dmap = streams.map { case (n, s) => n -> s(t) }.toMap
      dmap.foreach { case (n, d) =>
        inAcc(n) = inAcc.get(n).map(_.plus(d).compact()).getOrElse(d)
      }
      val dInc = incr.step(dmap).compact()
      val dNaive = naive.step(dmap)
      assert(dInc.zequals(dNaive), s"tick $t: incremental ≠ naïve lifted")
      outAcc = Some(outAcc.map(_.plus(dInc).compact()).getOrElse(dInc))
      atTick(outAcc.get, inAcc.toMap)
    }
    val batch = Incrementalizer.batch(q, inAcc.toMap)
    assert(outAcc.get.zequals(batch), "integral of output deltas ≠ batch on final snapshot")
    outAcc.get
  }
}
