package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._

import repro.zset.ZSet

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``. This catches wrong results from a rewritten plan
  * or a custom operator — "it ran" is not "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  *
  * Each table is created with the DuckDB types of its Spark columns and its
  * values are bound as the typed objects Spark returns, so SQL compares,
  * orders and aggregates them as numbers, dates or strings, as Spark does.
  * A column type with no DuckDB counterpart here throws.
  */
object Oracle {

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[String]] = {
    val idx = cols.sorted.map(cols.indexOf)
    rows.map(r => idx.map(i => ZSet.canonValue(r.get(i)))).sorted(ZSet.canonOrder)
  }

  /** The DuckDB type of a Spark column type. */
  private def duckType(t: DataType): String = t match {
    case LongType       => "BIGINT"
    case IntegerType    => "INTEGER"
    case DoubleType     => "DOUBLE"
    case StringType     => "VARCHAR"
    case BooleanType    => "BOOLEAN"
    case DateType       => "DATE"
    case d: DecimalType => s"DECIMAL(${d.precision}, ${d.scale})"
    case other          => throw new IllegalArgumentException(s"Oracle: no DuckDB type for $other")
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, df) <- tables) {
        val cols = df.schema.fields
        conn.createStatement.execute(
          s"CREATE TABLE $name (${cols.map(c => s"${c.name} ${duckType(c.dataType)}").mkString(", ")})"
        )
        // Collect once; this is an oracle, not a bench — keep tables small.
        val ps = conn.prepareStatement(
          s"INSERT INTO $name VALUES (${cols.map(_ => "?").mkString(",")})"
        )
        df.collect().foreach { r =>
          cols.indices.foreach(i => ps.setObject(i + 1, r.get(i)))
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      require(got == exp,
        s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
        s"  first spark-only: ${got.diff(exp).take(3)}\n" +
        s"  first duck-only:  ${exp.diff(got).take(3)}"
      )
    } finally conn.close()
  }
}
