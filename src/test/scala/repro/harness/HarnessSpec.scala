package repro.harness

import org.apache.spark.sql.execution.LogicalRDD

import repro.zset.{Trace, ZSet}
import repro.{SparkSpec, SynthGraph, ZSetFixtures}

/** The experiment substrate itself: change-stream generator, append-only
  * trace, graph generators, report rendering.
  */
class HarnessSpec extends SparkSpec with ZSetFixtures {

  test("Changes.stream: deltas integrate to the base minus deletions") {
    val base = zs1("k", (1L to 40L).map(k => k -> 1L): _*)
    val deltas = Changes.stream(base, ticks = 5, initialFrac = 0.4, deleteFrac = 0.0, seed = 3)
    assert(deltas.size == 5)
    val total = deltas.reduce(_ plus _)
    assert(total.zequals(base))
  }

  test("Changes.stream with deletions: integral is a subset of the base") {
    val base = zs1("k", (1L to 60L).map(k => k -> 1L): _*)
    val deltas = Changes.stream(base, ticks = 4, initialFrac = 0.5, deleteFrac = 0.5, seed = 4)
    val total = deltas.reduce(_ plus _).consolidate()
    assert(total.isPositive)
    assert(base.minus(total).isPositive)     // total ≤ base
    assert(total.entryCount < 60)            // something was deleted
  }

  test("Changes.stream is deterministic in its seed") {
    val base = zs1("k", (1L to 30L).map(k => k -> 1L): _*)
    val a = Changes.stream(base, 3, 0.5, 0.3, seed = 7)
    val b = Changes.stream(base, 3, 0.5, 0.3, seed = 7)
    a.zip(b).foreach { case (x, y) => assert(x.zequals(y)) }
  }

  test("Changes.stream: every delta tick is applicable (no double deletes)") {
    val base = zs1("k", (1L to 50L).map(k => k -> 1L): _*)
    val deltas = Changes.stream(base, 4, 0.5, 0.5, seed = 8)
    var acc = ZSet.empty(spark, base.dataSchema)
    deltas.foreach { d =>
      acc = acc.plus(d).consolidate()
      assert(acc.isPositive, "integral went negative")
    }
  }

  test("Trace integrates like repeated plus") {
    // 17 appends: the 16th consolidates the chunks.
    val trace = new Trace
    val deltas = (1L to 16L).map(k => zs1("k", k -> 1L)) :+ zs1("k", 1L -> -1L, 17L -> 2L)
    val before = deltas.map(d => trace.append(d.compact())).last
    assert(trace.value.zequals(deltas.reduce(_ plus _)))
    assert(before.zequals(deltas.init.reduce(_ plus _)))
  }

  test("A consolidating append refers only to the state it consolidated") {
    // A Spark-held first append of more than LocalLimit entries (a
    // checkpoint), then local ones; the 16th consolidates. The value before
    // it must not keep the superseded checkpoint reachable.
    val trace = new Trace
    val bulk = held(zs1("k", (-ZSet.LocalLimit.toLong to 0L).map(_ -> 1L): _*)).compact()
    val deltas = bulk +: (1L to 15L).map(k => zs1("k", k -> 1L).compact())
    val befores = deltas.map(trace.append)
    def rdds(z: ZSet): Set[Int] = z.df.queryExecution.analyzed.collect { case r: LogicalRDD => r.rdd.id }.toSet
    assert(rdds(befores(1)).nonEmpty)
    assert(rdds(befores.last).intersect(rdds(befores(1))).isEmpty)
    assert(befores.last.zequals(deltas.init.reduce(_ plus _)))
    assert(trace.value.zequals(deltas.reduce(_ plus _)))
  }

  test("Trace consolidation does not change the value") {
    // 18 appends that cancel in pairs, across the consolidation at the 16th.
    val trace = new Trace
    (1 to 18).foreach(i => trace.append(zs1("k", 5L -> (if (i % 2 == 1) 3L else -3L)).compact()))
    assert(trace.value.isEmpty)
  }

  test("SynthGraph.chain has n−1 edges and no cycles") {
    val e = SynthGraph.chain(spark, 10)
    assert(e.count() == 9)
    assert(e.where("h >= t").count() == 0)
  }

  test("SynthGraph.layeredEdges respects the layer structure") {
    val e = SynthGraph.layeredEdges(spark, layers = 4, width = 5, fanout = 2)
    // Every edge goes from layer l to layer l+1.
    val bad = e.where("t div 5 != h div 5 + 1").count()
    assert(bad == 0)
    assert(e.count() > 0)
  }

  test("SynthGraph.uniformEdges: distinct edges, no self-loops") {
    val e = SynthGraph.uniformEdges(spark, nNodes = 20, nEdges = 30)
    assert(e.where("h = t").count() == 0)
    assert(e.distinct().count() == e.count())
  }

  test("Report.table renders aligned markdown") {
    val t = Report.table("x", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
    assert(t.contains("### x"))
    assert(t.linesIterator.count(_.startsWith("|")) == 4)
  }

  test("Report.timedBest picks the minimum") {
    var calls = 0
    val (_, ms) = Report.timedBest(Seq(
      () => { calls += 1; Thread.sleep(30); 1 },
      () => { calls += 1; 2 }))
    assert(calls == 2)
    assert(ms < 30.0)
  }
}
