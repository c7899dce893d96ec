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
    inAnyOrder(Seq((1L, 23L), (12L, 3L)), "SELECT CAST(a AS BIGINT) AS a, CAST(b AS BIGINT) AS b")
    // Joining values with a separator character gives these two rows one key.
    inAnyOrder(Seq(("x\u0001y", "z"), ("x", "y\u0001z")), "SELECT a, b")
  }
}
