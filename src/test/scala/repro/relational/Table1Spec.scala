package repro.relational

import repro.zset.ZSet
import repro.{Oracle, SparkSpec, ZSetFixtures}

/** Reproduction of **Table 1**: every relational set operator, translated to
  * a Z-set circuit, validated two ways —
  *
  *  1. batch: circuit output (as a set) equals DuckDB on the same inputs;
  *  2. incremental: Algorithm 4.8's circuit, driven by a change stream with
  *     inserts and deletes, produces per-tick deltas identical to the naïve
  *     lifted circuit, and its integral equals batch evaluation of the final
  *     snapshot.
  */
class Table1Spec extends SparkSpec with ZSetFixtures with RelChecks {

  import Rel._

  // --- inputs: two same-schema sets and one join partner ------------------

  private lazy val ta: ZSet = zs2("x", "y",
    (1L, 10L) -> 1L, (2L, 10L) -> 1L, (2L, 20L) -> 1L, (3L, 30L) -> 1L,
    (4L, 40L) -> 1L, (5L, 10L) -> 1L)
  private lazy val tb: ZSet = zs2("x", "y",
    (2L, 20L) -> 1L, (3L, 30L) -> 1L, (6L, 10L) -> 1L, (7L, 70L) -> 1L)
  private lazy val tc: ZSet = zs2("y", "z",
    (10L, 100L) -> 1L, (10L, 101L) -> 1L, (30L, 300L) -> 1L, (99L, 990L) -> 1L)

  private def incrementalCheck(q: Rel, inputs: (String, ZSet)*): Unit = {
    incrementalCheck(q, ticks = 4, deleteFrac = 0.25, inputs: _*)
    ()
  }

  // ------------------------------------------------------------- operators

  test("Table 1 σ (WHERE): batch ≡ DuckDB") {
    oracleCheck(Select(Table("ta"), "x > 2"),
      "SELECT x, y FROM ta WHERE x > 2", "ta" -> ta)
  }
  test("Table 1 σ (WHERE): incremental") {
    incrementalCheck(Select(Table("ta"), "x > 2"), "ta" -> ta)
  }

  test("Table 1 π (SELECT DISTINCT): batch ≡ DuckDB") {
    oracleCheck(Project(Table("ta"), Seq("y")),
      "SELECT DISTINCT y FROM ta", "ta" -> ta)
  }
  test("Table 1 π (SELECT DISTINCT): incremental") {
    incrementalCheck(Project(Table("ta"), Seq("y")), "ta" -> ta)
  }

  test("Table 1 map (SELECT DISTINCT expr): batch ≡ DuckDB") {
    oracleCheck(Project(Table("ta"), Seq("x + y AS s")),
      "SELECT DISTINCT x + y AS s FROM ta", "ta" -> ta)
  }
  test("Table 1 map: incremental") {
    incrementalCheck(Project(Table("ta"), Seq("x + y AS s")), "ta" -> ta)
  }

  test("Table 1 UNION: batch ≡ DuckDB") {
    oracleCheck(Union(Table("ta"), Table("tb")),
      "SELECT x, y FROM ta UNION SELECT x, y FROM tb", "ta" -> ta, "tb" -> tb)
  }
  test("Table 1 UNION: incremental") {
    incrementalCheck(Union(Table("ta"), Table("tb")), "ta" -> ta, "tb" -> tb)
  }

  test("§7.1 UNION ALL: batch ≡ DuckDB (bag semantics)") {
    val q = UnionAll(Table("ta"), Table("tb"))
    val out = Incrementalizer.batch(q, Map("ta" -> ta, "tb" -> tb)).toBagDF
    Oracle.assertEquivalent(out,
      "SELECT x, y FROM ta UNION ALL SELECT x, y FROM tb",
      "ta" -> ta.toSetDF, "tb" -> tb.toSetDF)
  }
  test("§7.1 UNION ALL: incremental") {
    incrementalCheck(UnionAll(Table("ta"), Table("tb")), "ta" -> ta, "tb" -> tb)
  }

  test("Table 1 INTERSECT: batch ≡ DuckDB") {
    oracleCheck(Intersect(Table("ta"), Table("tb")),
      "SELECT x, y FROM ta INTERSECT SELECT x, y FROM tb", "ta" -> ta, "tb" -> tb)
  }
  test("Table 1 INTERSECT: incremental") {
    incrementalCheck(Intersect(Table("ta"), Table("tb")), "ta" -> ta, "tb" -> tb)
  }

  test("Table 1 EXCEPT: batch ≡ DuckDB") {
    oracleCheck(Except(Table("ta"), Table("tb")),
      "SELECT x, y FROM ta EXCEPT SELECT x, y FROM tb", "ta" -> ta, "tb" -> tb)
  }
  test("Table 1 EXCEPT: incremental") {
    incrementalCheck(Except(Table("ta"), Table("tb")), "ta" -> ta, "tb" -> tb)
  }

  test("Table 1 × (CROSS JOIN): batch ≡ DuckDB") {
    val q = Cross(Project(Table("ta"), Seq("x")), Project(Table("tc"), Seq("z")))
    oracleCheck(q,
      "SELECT x, z FROM (SELECT DISTINCT x FROM ta) l CROSS JOIN (SELECT DISTINCT z FROM tc) r",
      "ta" -> ta, "tc" -> tc)
  }
  test("Table 1 ×: incremental") {
    val q = Cross(Project(Table("ta"), Seq("x")), Project(Table("tc"), Seq("z")))
    incrementalCheck(q, "ta" -> ta, "tc" -> tc)
  }

  test("Table 1 ⋈ (equi-join): batch ≡ DuckDB") {
    oracleCheck(Join(Table("ta"), Table("tc"), Seq("y")),
      "SELECT ta.x, ta.y, tc.z FROM ta JOIN tc ON ta.y = tc.y", "ta" -> ta, "tc" -> tc)
  }
  test("Table 1 ⋈: incremental") {
    incrementalCheck(Join(Table("ta"), Table("tc"), Seq("y")), "ta" -> ta, "tc" -> tc)
  }

  test("§7.5 antijoin: batch ≡ DuckDB") {
    oracleCheck(AntiJoin(Table("ta"), Table("tc"), Seq("y")),
      "SELECT x, y FROM ta WHERE NOT EXISTS (SELECT 1 FROM tc WHERE tc.y = ta.y)",
      "ta" -> ta, "tc" -> tc)
  }
  test("§7.5 antijoin: incremental") {
    incrementalCheck(AntiJoin(Table("ta"), Table("tc"), Seq("y")), "ta" -> ta, "tc" -> tc)
  }

  test("Table 1 DISTINCT: batch ≡ DuckDB") {
    oracleCheck(Distinct(UnionAll(Table("ta"), Table("ta"))),
      "SELECT DISTINCT x, y FROM (SELECT x, y FROM ta UNION ALL SELECT x, y FROM ta)",
      "ta" -> ta)
  }
  test("Table 1 DISTINCT: incremental") {
    incrementalCheck(Distinct(UnionAll(Table("ta"), Table("ta"))), "ta" -> ta)
  }

  // --------------------------------------------------------- compositions

  test("composed query (σ ∘ ⋈ ∘ π): batch ≡ DuckDB") {
    val q = Project(Select(Join(Table("ta"), Table("tc"), Seq("y")), "z > 100"), Seq("x", "z"))
    oracleCheck(q,
      """SELECT DISTINCT x, z FROM ta JOIN tc ON ta.y = tc.y
        |WHERE z > 100""".stripMargin,
      "ta" -> ta, "tc" -> tc)
  }
  test("composed query (σ ∘ ⋈ ∘ π): incremental") {
    val q = Project(Select(Join(Table("ta"), Table("tc"), Seq("y")), "z > 100"), Seq("x", "z"))
    incrementalCheck(q, "ta" -> ta, "tc" -> tc)
  }

  test("nested set ops (EXCEPT of UNION and INTERSECT): batch ≡ DuckDB") {
    val q = Except(Union(Table("ta"), Table("tb")), Intersect(Table("ta"), Table("tb")))
    oracleCheck(q,
      """(SELECT x, y FROM ta UNION SELECT x, y FROM tb)
        |EXCEPT
        |(SELECT x, y FROM ta INTERSECT SELECT x, y FROM tb)""".stripMargin,
      "ta" -> ta, "tb" -> tb)
  }
  test("nested set ops: incremental") {
    val q = Except(Union(Table("ta"), Table("tb")), Intersect(Table("ta"), Table("tb")))
    incrementalCheck(q, "ta" -> ta, "tb" -> tb)
  }
}
