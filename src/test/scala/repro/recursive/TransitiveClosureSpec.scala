package repro.recursive

import repro.relational.{IncrementalRunner, ZExpr}
import repro.zset.ZSet
import repro.{Oracle, SparkSpec, SynthGraph, ZSetFixtures}

/** §5.1: recursive query evaluation. Theorem 5.4 (naïve circuit correctness)
  * is validated against DuckDB's recursive CTE; the semi-naïve circuit (5.1)
  * must agree and do strictly less per-iteration work.
  */
class TransitiveClosureSpec extends SparkSpec with ZSetFixtures {

  private def edges(pairs: (Long, Long)*): ZSet =
    zs2("h", "t", pairs.map(p => p -> 1L): _*)

  test("Thm 5.4: naïve TC on a small DAG ≡ DuckDB recursive CTE") {
    val e = edges(1L -> 2L, 2L -> 3L, 3L -> 4L, 1L -> 5L)
    val (r, _) = TransitiveClosure.naive(e)
    Oracle.assertEquivalent(r.toSetDF, TransitiveClosure.oracleSql, "e" -> e.toSetDF)
  }

  test("Thm 5.4: naïve TC on a cyclic graph ≡ DuckDB recursive CTE") {
    val e = edges(1L -> 2L, 2L -> 3L, 3L -> 1L, 3L -> 4L)
    val (r, _) = TransitiveClosure.naive(e)
    Oracle.assertEquivalent(r.toSetDF, TransitiveClosure.oracleSql, "e" -> e.toSetDF)
  }

  test("semi-naïve ≡ naïve on a DAG") {
    val e = edges(1L -> 2L, 2L -> 3L, 3L -> 4L, 4L -> 5L, 2L -> 5L)
    val (rn, _) = TransitiveClosure.naive(e)
    val (rs, _) = TransitiveClosure.semiNaive(e)
    assert(rn.zequals(rs))
  }

  test("semi-naïve ≡ naïve on a cyclic graph") {
    val e = edges(1L -> 2L, 2L -> 1L, 2L -> 3L)
    val (rn, _) = TransitiveClosure.naive(e)
    val (rs, _) = TransitiveClosure.semiNaive(e)
    assert(rn.zequals(rs))
  }

  test("semi-naïve ≡ naïve on a random graph, with DuckDB oracle") {
    val e = ZSet.fromSet(SynthGraph.uniformEdges(spark, nNodes = 12, nEdges = 18))
    val (rn, _) = TransitiveClosure.naive(e)
    val (rs, _) = TransitiveClosure.semiNaive(e)
    assert(rn.zequals(rs))
    Oracle.assertEquivalent(rs.toSetDF, TransitiveClosure.oracleSql, "e" -> e.toSetDF)
  }

  test("chain graph: fixpoint depth tracks the path length") {
    val e = ZSet.fromSet(SynthGraph.chain(spark, 8)) // path of 8 nodes
    val (r, stats) = TransitiveClosure.semiNaive(e)
    // R contains all (i, j) with i ≤ j: 8·9/2 = 36 facts.
    assert(r.entryCount == 36)
    // Depth-d paths appear at iteration d: ≥ path length iterations.
    assert(stats.iterations >= 7)
  }

  test("§5.1 claim: semi-naïve per-iteration work ≤ naïve, totals strictly smaller") {
    val e = ZSet.fromSet(SynthGraph.layeredEdges(spark, layers = 5, width = 4, fanout = 2))
    val (rn, sn) = TransitiveClosure.naive(e)
    val (rs, ss) = TransitiveClosure.semiNaive(e)
    assert(rn.zequals(rs))
    // Naïve re-derives the whole relation each iteration; semi-naïve only the
    // frontier. Compare aligned iterations (the last semi-naïve delta is 0).
    ss.workPerIteration.zip(sn.workPerIteration).foreach { case (d, full) =>
      assert(d <= full, s"delta $d > full $full")
    }
    assert(ss.totalWork < sn.totalWork)
  }

  test("empty input yields empty closure in 1–2 iterations") {
    val e = TransitiveClosure.emptyE(spark)
    val (rn, _) = TransitiveClosure.naive(e)
    val (rs, ss) = TransitiveClosure.semiNaive(e)
    assert(rn.isEmpty && rs.isEmpty)
    assert(ss.iterations <= 2)
  }

  test("the closure is a set (isset holds, Thm 5.4 precondition preserved)") {
    val e = edges(1L -> 2L, 2L -> 3L, 1L -> 3L, 3L -> 1L)
    val (r, _) = TransitiveClosure.semiNaive(e)
    assert(r.isSetLike)
  }

  test("a loop with no fixpoint fails loudly: iterate throws after maxIter iterations") {
    val one = edges(1L -> 2L)
    // x ← {(1, 2)} − x flips between {(1, 2)} and ∅ forever.
    val e = intercept[IllegalArgumentException](
      Fixpoint.iterate(TransitiveClosure.emptyE(spark), one.minus(_), maxIter = 5))
    assert(e.getMessage.contains("no fixpoint after 5 iterations"))
  }

  test("a loop with no fixpoint fails loudly: loop throws below a chain's depth") {
    // The closure of an 8-node path needs at least 7 iterations (see above).
    val chain = ZSet.fromSet(SynthGraph.chain(spark, 8))
    val body = new IncrementalRunner(ZExpr.ZDistinct(TransitiveClosure.body))
    val e = intercept[IllegalArgumentException](Fixpoint.loop(
      body, Map("E" -> chain), TransitiveClosure.emptyR(spark), minIter = 0, maxIter = 3))
    assert(e.getMessage.contains("no convergence after 3 iterations"))
  }
}
