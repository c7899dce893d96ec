package repro.recursive

import scala.collection.mutable
import scala.util.Random

import org.apache.spark.sql.types._

import repro.nested.IncrementalFixpoint
import repro.relational.ZExpr
import repro.relational.ZExpr._
import repro.zset.ZSet
import repro.{Oracle, SparkSpec, ZSetFixtures}

/** Further stratified Datalog programs through the §5 machinery — the
  * generality claim beyond transitive closure — and their incremental
  * maintenance by the §6 circuit, derived from the same rules.
  */
class DatalogProgramsSpec extends SparkSpec with ZSetFixtures {

  private val rSchema = StructType(Seq(StructField("n", LongType, nullable = false)))

  // reachable(x) :- source(x).
  // reachable(y) :- reachable(x), edge(x, y).
  private val reachBody =
    ZSum(
      ZMap(ZInput("S"), Seq("n")),
      ZMap(ZJoin(ZMap(ZInput("E"), Seq("h AS n", "t")), ZInput("R"), Seq("n")),
           Seq("t AS n")))

  private val reachOracle =
    """WITH RECURSIVE r(n) AS (
      |  SELECT n FROM s
      |  UNION
      |  SELECT e.t FROM e JOIN r ON e.h = r.n
      |)
      |SELECT n FROM r""".stripMargin

  private def edges(pairs: (Long, Long)*): ZSet =
    zs2("h", "t", pairs.map(p => p -> 1L): _*)

  test("source reachability: naïve ≡ DuckDB recursive CTE") {
    val e = edges(1L -> 2L, 2L -> 3L, 4L -> 5L, 3L -> 1L)
    val s = zs1("n", 1L -> 1L)
    val (r, _) = Fixpoint.naive(reachBody, Map("S" -> s, "E" -> e), ZSet.empty(spark, rSchema))
    Oracle.assertEquivalent(r.toSetDF, reachOracle, "s" -> s.toSetDF, "e" -> e.toSetDF)
  }

  test("source reachability: semi-naïve ≡ naïve, disconnected parts excluded") {
    val e = edges(1L -> 2L, 2L -> 3L, 4L -> 5L)
    val s = zs1("n", 1L -> 1L)
    val (rn, _) = Fixpoint.naive(reachBody, Map("S" -> s, "E" -> e), ZSet.empty(spark, rSchema))
    val (rs, _) = Fixpoint.semiNaive(reachBody, Map("S" -> s, "E" -> e), ZSet.empty(spark, rSchema))
    assert(rn.zequals(rs))
    assert(entriesOf(rs).map(_._1.head).toSet == Set("1", "2", "3")) // 4, 5 unreachable
  }

  test("source reachability with multiple sources") {
    val e = edges(1L -> 2L, 4L -> 5L, 5L -> 6L)
    val s = zs1("n", 1L -> 1L, 4L -> 1L)
    val (r, _) = Fixpoint.semiNaive(reachBody, Map("S" -> s, "E" -> e), ZSet.empty(spark, rSchema))
    Oracle.assertEquivalent(r.toSetDF, reachOracle, "s" -> s.toSetDF, "e" -> e.toSetDF)
  }

  // ancestor(x, y) :- parent(x, y).
  // ancestor(x, z) :- parent(x, y), ancestor(y, z).
  private val ancSchema = StructType(Seq(
    StructField("a", LongType, nullable = false),
    StructField("d", LongType, nullable = false)))
  private val ancBody =
    ZSum(
      ZMap(ZInput("P"), Seq("h AS a", "t AS d")),
      ZMap(ZJoin(ZMap(ZInput("P"), Seq("h AS a", "t AS m")),
                 ZMap(ZInput("R"), Seq("a AS m", "d")), Seq("m")),
           Seq("a", "d")))

  private val ancOracle =
    """WITH RECURSIVE anc(a, d) AS (
      |  SELECT h, t FROM p
      |  UNION
      |  SELECT p.h, anc.d FROM p JOIN anc ON p.t = anc.a
      |)
      |SELECT a, d FROM anc""".stripMargin

  test("ancestor: semi-naïve ≡ DuckDB on a family tree") {
    val p = edges(1L -> 2L, 1L -> 3L, 2L -> 4L, 3L -> 5L, 4L -> 6L)
    val (r, _) = Fixpoint.semiNaive(ancBody, Map("P" -> p), ZSet.empty(spark, ancSchema))
    Oracle.assertEquivalent(r.toSetDF, ancOracle, "p" -> p.toSetDF)
  }

  test("ancestor: semi-naïve iteration depth follows generation depth") {
    val p = edges(1L -> 2L, 2L -> 3L, 3L -> 4L, 4L -> 5L) // 4 generations
    val (_, stats) = Fixpoint.semiNaive(ancBody, Map("P" -> p), ZSet.empty(spark, ancSchema))
    assert(stats.iterations >= 4 && stats.iterations <= 6)
  }

  // ------------------------------------------------ incremental maintenance

  /** A seeded stream of edge changes over `nodes` nodes: a bulk load, an
    * insert, a delete, an empty tick, a redundant insert (an edge whose head
    * already reaches its tail, so no fact changes) and an insert with a
    * delete.
    */
  private def edgeStream(seed: Long, nodes: Int = 6): Seq[Seq[((Long, Long), Long)]] = {
    val rnd = new Random(seed)
    val live = mutable.Set.empty[(Long, Long)]
    def reaches(h: Long, t: Long): Boolean = {
      val seen = mutable.Set.empty[Long]
      var frontier = Set(h)
      while (frontier.nonEmpty) {
        frontier = live.collect { case (a, b) if frontier(a) && !seen(b) => b }.toSet
        seen ++= frontier
      }
      seen(t)
    }
    def insert(ok: (Long, Long) => Boolean): ((Long, Long), Long) = {
      val cands = for (h <- 0L until nodes; t <- 0L until nodes if !live((h, t)) && ok(h, t)) yield (h, t)
      val e = cands(rnd.nextInt(cands.size))
      live += e
      e -> 1L
    }
    def delete(): ((Long, Long), Long) = {
      val e = live.toSeq.sorted.apply(rnd.nextInt(live.size))
      live -= e
      e -> -1L
    }
    val any = (_: Long, _: Long) => true
    Seq(Seq.fill(8)(insert(any)), Seq(insert(any)), Seq(delete()), Seq(),
        Seq(insert(reaches)), Seq(insert(any), delete()))
  }

  /** Run `body` through [[IncrementalFixpoint]] on per-tick input changes;
    * on every tick the integrated view must equal a from-scratch semi-naïve
    * evaluation over the integrated inputs. Returns the final inputs, view
    * and per-tick view changes.
    */
  private def maintain(body: ZExpr, recEmpty: ZSet, ticks: Seq[Map[String, ZSet]])
      : (Map[String, ZSet], ZSet, Seq[ZSet]) = {
    val inc = new IncrementalFixpoint(body, recEmpty)
    var inputs = Map.empty[String, ZSet]
    var view = recEmpty
    val deltas = ticks.zipWithIndex.map { case (d, t) =>
      val (dR, _) = inc.step(d)
      inputs = d.map { case (n, z) => n -> inputs.get(n).fold(z)(_.plus(z)).compact() }
      view = view.plus(dR).compact()
      val (expected, _) = Fixpoint.semiNaive(body, inputs, recEmpty)
      assert(view.zequals(expected),
        s"tick $t: maintained view diverges; got=${view.entries()} want=${expected.entries()}")
      dR
    }
    (inputs, view, deltas)
  }

  test("source reachability maintained incrementally ≡ semi-naïve per tick ≡ DuckDB") {
    val sources = Seq(Seq(0L -> 1L), Seq(3L -> 1L), Seq(), Seq(), Seq(), Seq(0L -> -1L))
    val ticks = edgeStream(seed = 7).zip(sources).map { case (e, s) =>
      Map("S" -> zs1("n", s: _*), "E" -> zs2("h", "t", e: _*))
    }
    val (in, view, deltas) = maintain(reachBody, ZSet.empty(spark, rSchema), ticks)
    assert(deltas(3).isEmpty && deltas(4).isEmpty) // empty tick, redundant insert
    Oracle.assertEquivalent(view.toSetDF, reachOracle, "s" -> in("S").toSetDF, "e" -> in("E").toSetDF)
  }

  test("ancestor maintained incrementally ≡ semi-naïve per tick ≡ DuckDB") {
    val ticks = edgeStream(seed = 11).map(p => Map("P" -> zs2("h", "t", p: _*)))
    val (in, view, deltas) = maintain(ancBody, ZSet.empty(spark, ancSchema), ticks)
    assert(deltas(3).isEmpty && deltas(4).isEmpty) // empty tick, redundant insert
    Oracle.assertEquivalent(view.toSetDF, ancOracle, "p" -> in("P").toSetDF)
  }
}
