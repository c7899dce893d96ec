package repro

import org.apache.spark.sql.Encoder

/** The DuckDB oracle itself: equal results must compare equal whatever
  * order each engine returns its rows in.
  */
class OracleSpec extends SparkSpec {

  /** `rows` on the Spark side in either order against the same rows read
    * back from DuckDB in either order.
    */
  private def inAnyOrder[T: Encoder](rows: Seq[T], select: String): Unit = {
    val s = spark
    import s.implicits._
    for (sparkRows <- Seq(rows, rows.reverse); order <- Seq("ASC", "DESC"))
      Oracle.assertEquivalent(sparkRows.toDF("a", "b"), s"$select FROM t ORDER BY a $order",
        "t" -> rows.toDF("a", "b"))
  }

  test("rows whose values concatenate alike compare equal in any order") {
    val s = spark
    import s.implicits._
    inAnyOrder(Seq((1L, 23L), (12L, 3L)), "SELECT a, b")
    // Joining values with a separator character gives these two rows one key.
    inAnyOrder(Seq(("x\u0001y", "z"), ("x", "y\u0001z")), "SELECT a, b")
  }

  test("tables keep their Spark column types: MAX over {9, 10} is 10, not the string '9'") {
    val s = spark
    import s.implicits._
    Oracle.assertEquivalent(Seq(10L).toDF("m"), "SELECT MAX(a) AS m FROM t", "t" -> Seq(9L, 10L).toDF("a"))
    val typed = Seq((1, 2.5, true, BigDecimal("1.25"), "x")).toDF("i", "d", "b", "dec", "s")
    Oracle.assertEquivalent(typed.select("i", "s"),
      "SELECT i, s FROM t WHERE i + 1 = 2 AND d > 2.25 AND b AND dec < 1.5", "t" -> typed)
    intercept[IllegalArgumentException](
      Oracle.assertEquivalent(typed, "SELECT 1", "t" -> Seq(Seq(1L)).toDF("arr")))
  }
}
