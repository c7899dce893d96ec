package repro

import scala.jdk.CollectionConverters._
import scala.util.Random

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._

import repro.zset.ZSet

/** Small in-line Z-set builders for tests. */
trait ZSetFixtures { self: SparkSpec =>

  /** Z-set over one long column from (value, weight) pairs. */
  def zs1(col: String, entries: (Long, Long)*): ZSet = {
    val spark = self.spark
    import spark.implicits._
    ZSet.raw(entries.toSeq.toDF(col, ZSet.W))
  }

  /** Z-set over two long columns from ((v1, v2), weight) pairs. */
  def zs2(c1: String, c2: String, entries: ((Long, Long), Long)*): ZSet = ZSet.raw(df2(c1, c2, entries: _*))

  /** The weighted rows of `zs2`, as given. */
  def df2(c1: String, c2: String, entries: ((Long, Long), Long)*): DataFrame = {
    val spark = self.spark
    import spark.implicits._
    entries.toSeq.map { case ((a, b), w) => (a, b, w) }.toDF(c1, c2, ZSet.W)
  }

  /** Z-set over one string column from (value, weight) pairs. */
  def zsS(col: String, entries: (String, Long)*): ZSet = {
    val spark = self.spark
    import spark.implicits._
    ZSet.raw(entries.toSeq.toDF(col, ZSet.W))
  }

  /** Plain one-column long DataFrame. */
  def df1(col: String, values: Long*): DataFrame = {
    val spark = self.spark
    import spark.implicits._
    values.toSeq.toDF(col)
  }

  /** A Spark-held copy of `z`: its rows checkpointed, so it is not local, as
    * a bulk load from `spark.range` is not, until `compact()` collects it
    * (at most `ZSet.LocalLimit` entries).
    */
  def held(z: ZSet): ZSet = ZSet.raw(z.df.localCheckpoint())

  /** Keys Spark groups specially: null, −0.0 and 0.0 (one value), NaN. */
  val edgeKeys: Seq[java.lang.Double] = null +: Seq(-0.0, 0.0, Double.NaN, 1.5).map(Double.box)

  /** Weighted rows over (`k`: nullable double, `v`: long). */
  def dfKV(k: String, v: String, rows: Seq[(java.lang.Double, Long, Long)]): DataFrame =
    spark.createDataFrame(rows.map { case (a, b, w) => Row(a, b, w) }.asJava, StructType(Seq(
      StructField(k, DoubleType), StructField(v, LongType, nullable = false),
      StructField(ZSet.W, LongType, nullable = false))))

  /** Random weighted rows over (`k`, `v`) with keys from `edgeKeys`,
    * duplicate rows, and a row whose weights cancel.
    */
  def randKV(rnd: Random, k: String, v: String, maxRows: Int = 6): DataFrame = {
    val rows = Seq.fill(1 + rnd.nextInt(maxRows))(
      (edgeKeys(rnd.nextInt(edgeKeys.size)), rnd.nextInt(3).toLong, rnd.nextInt(5) - 2L))
    val (ck, cv, cw) = rows.head
    dfKV(k, v, rows ++ rows.take(2) :+ ((ck, cv, -cw)))
  }

  /** The same weighted rows as a local Z-set and as a Spark-held one. */
  def localAndHeld(df: DataFrame): (ZSet, ZSet) = {
    val (l, h) = (ZSet.raw(df), ZSet.raw(df.localCheckpoint()))
    assert(l.isLocal && !h.isLocal, "fixture: representations")
    (l, h)
  }

  /** Each change as a local Z-set, as a Spark-held one, and mixed: the
    * first change Spark-held (a bulk load), then local on the ticks `local`
    * picks and Spark-held on the others. These changes are small, so an
    * operator's first `compact()` of a Spark-held one makes it local.
    */
  def modes(changes: Seq[DataFrame], local: Int => Boolean = _ % 2 == 1): Seq[(String, Seq[ZSet])] = {
    val both = changes.map(localAndHeld)
    Seq("local" -> both.map(_._1), "held" -> both.map(_._2),
      "mixed" -> both.zipWithIndex.map { case ((l, h), t) => if (t > 0 && local(t)) l else h })
  }

  /** Canonical entries for equality assertions. */
  def entriesOf(z: ZSet): Set[(Seq[String], Long)] = z.entries().toSet
}
