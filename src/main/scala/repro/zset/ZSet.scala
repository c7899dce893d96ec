package repro.zset

import org.apache.spark.sql.{Column, DataFrame, Observation, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

import repro.algebra.Group

/** A Z-set over rows (§4.1 of the paper): a function with finite support from
  * tuples to integer multiplicities, embedded in Spark as a DataFrame whose
  * columns are the tuple's data columns plus one `__w: long` weight column.
  *
  * Invariant: the *meaning* of a `ZSet` is its consolidated form (one row per
  * distinct tuple, non-zero weight). For performance the underlying DataFrame
  * may be unconsolidated (the same tuple split across rows whose weights sum);
  * `consolidate()` normalizes, and every observation (`isEmpty`, `entries`,
  * `zequals`, aggregation) consolidates first. All transformations here are
  * plain DataFrame combinators, so each one is planned and executed by
  * Catalyst.
  *
  * Known count: `knownCount = Some(n)` means the DataFrame is consolidated and
  * materialized and holds exactly `n` rows. `compact()` learns `n` while it
  * materializes (no extra Spark action) and `ZSet.empty` is `Some(0)`; with a
  * known count, `compact`, `consolidate`, `isEmpty` and `entryCount` run no
  * Spark job. A known zero propagates structurally, so work on empty values
  * launches nothing:
  *   - σ, π, map, negate, scale, consolidate, distinct and `broadcastHint` of
  *     a known zero are a known zero;
  *   - ⋈ and × with a known-zero side are a known zero;
  *   - `plus` with a known-zero operand is the other operand, in the left
  *     operand's column order and with the other operand's known count.
  * Every shortcut still builds the result's (lazy) DataFrame, so schemas and
  * argument checks are the same as without it.
  */
final class ZSet private (val df: DataFrame, private val knownCount: Option[Long] = None)
    extends Serializable {
  import ZSet.W

  def spark: SparkSession = df.sparkSession

  /** Data columns, in DataFrame order (weight column excluded). */
  val dataCols: Seq[String] = df.columns.filterNot(_ == W).toSeq

  /** Schema of the data columns only. */
  def dataSchema: StructType = StructType(df.schema.fields.filterNot(_.name == W))

  /** Known to be the zero Z-set without running a Spark job. */
  private[repro] def isKnownZero: Boolean = knownCount.contains(0L)

  /** The result of a unary operator that maps zero to zero. */
  private def keepZero(out: DataFrame): ZSet =
    new ZSet(out, if (isKnownZero) Some(0L) else None)

  /** Same column names with the same types; nullability is ignored. */
  private def requireSameCols(that: ZSet, op: String): Unit = {
    def types(z: ZSet) = z.dataSchema.fields.map(f => f.name -> f.dataType).toMap
    val (mine, theirs) = (types(this), types(that))
    require(
      mine.keySet == theirs.keySet &&
        mine.forall { case (n, t) => DataType.equalsStructurally(t, theirs(n), ignoreNullability = true) },
      s"$op: schema mismatch: $dataSchema vs ${that.dataSchema}")
  }

  // ---------------------------------------------------------------- group ops

  /** Z-set addition (pointwise weight sum). Lazy: does not consolidate. */
  def plus(that: ZSet): ZSet = {
    requireSameCols(that, "plus")
    val cols = (dataCols :+ W).map(col)
    if (that.isKnownZero) new ZSet(df.select(cols: _*), knownCount)
    else if (isKnownZero) new ZSet(that.df.select(cols: _*), that.knownCount)
    else new ZSet(df.select(cols: _*).unionByName(that.df.select(cols: _*)))
  }

  /** Z-set negation (weights flipped). */
  def negate: ZSet = keepZero(df.withColumn(W, -col(W)))

  def minus(that: ZSet): ZSet = plus(that.negate)

  /** Multiply every weight by a constant. */
  def scale(k: Long): ZSet = keepZero(df.withColumn(W, col(W) * lit(k)))

  /** One row per distinct tuple, weights summed, zero-weight tuples dropped. */
  def consolidate(): ZSet =
    if (knownCount.isDefined) this
    else if (dataCols.isEmpty) {
      // Degenerate nullary relation: a single abstract tuple with a net weight.
      new ZSet(df.agg(sum(W) as W).where(col(W) =!= 0))
    } else {
      new ZSet(
        df.groupBy(dataCols.map(col): _*)
          .agg(sum(W) as W)
          .where(col(W) =!= 0))
    }

  // --------------------------------------------------------- set-like operators

  /** `distinct` (Definition 4.3): multiplicity 1 where positive, else absent. */
  def distinctZ: ZSet =
    keepZero(consolidate().df.where(col(W) > 0).withColumn(W, lit(1L)))

  /** Selection σ: keep tuples satisfying `cond` (a predicate on data columns). */
  def filterZ(cond: Column): ZSet = keepZero(df.where(cond))

  /** Projection π onto a subset of columns; weights of merged tuples add. */
  def project(cols: String*): ZSet = keepZero(df.select((cols :+ W).map(col): _*))

  /** Generalized map: SQL projection expressions ("expr AS alias").
    * Linear in the Z-set (weights carried through and summed on collision).
    */
  def mapRows(sqlExprs: String*): ZSet = keepZero(df.selectExpr(sqlExprs :+ W: _*))

  /** Equi-join on shared key columns; weights multiply (bilinear, Thm 3.4's ⋈).
    * Non-key data columns of the two sides must be disjoint.
    */
  def join(that: ZSet, keys: Seq[String]): ZSet = {
    require(keys.nonEmpty, "join: empty key list — use cartesian")
    val clash = (dataCols.toSet -- keys).intersect(that.dataCols.toSet -- keys)
    require(clash.isEmpty, s"join: non-key column clash: $clash")
    val lw = "__wl"; val rw = "__wr"
    val j = df.withColumnRenamed(W, lw).join(that.df.withColumnRenamed(W, rw), keys)
    product(that, j.withColumn(W, col(lw) * col(rw)).drop(lw, rw))
  }

  /** Cartesian product ×; weights multiply. Column names must be disjoint. */
  def cartesian(that: ZSet): ZSet = {
    val clash = dataCols.toSet.intersect(that.dataCols.toSet)
    require(clash.isEmpty, s"cartesian: column clash: $clash")
    val lw = "__wl"; val rw = "__wr"
    val j = df.withColumnRenamed(W, lw).crossJoin(that.df.withColumnRenamed(W, rw))
    product(that, j.withColumn(W, col(lw) * col(rw)).drop(lw, rw))
  }

  /** A bilinear result: zero when either operand is a known zero. */
  private def product(that: ZSet, out: DataFrame): ZSet =
    new ZSet(out, if (isKnownZero || that.isKnownZero) Some(0L) else None)

  // ------------------------------------------------------------- observations

  def isEmpty: Boolean = knownCount.fold(consolidate().df.isEmpty)(_ == 0L)

  def nonEmpty: Boolean = !isEmpty

  /** Number of distinct tuples with non-zero weight. */
  def entryCount: Long = knownCount.getOrElse(consolidate().df.count())

  /** Sum of all multiplicities (the COUNT aggregate of §7.2 on the Z-set). */
  def totalWeight: Long = {
    val r = df.agg(coalesce(sum(W), lit(0L))).head()
    r.getLong(0)
  }

  /** Definition 4.2: every multiplicity non-negative. */
  def isPositive: Boolean = consolidate().df.where(col(W) < 0).isEmpty

  /** Definition 4.1: every multiplicity exactly one. */
  def isSetLike: Boolean = consolidate().df.where(col(W) =!= 1).isEmpty

  /** Z-set equality: same consolidated content. */
  def zequals(that: ZSet): Boolean = minus(that).isEmpty

  /** Consolidated entries as (canonical string values, weight), sorted. */
  def entries(): Seq[(Seq[String], Long)] = {
    val c = consolidate()
    val n = c.dataCols.size
    c.df.collect().toSeq
      .map { r =>
        val vals: Seq[String] = (0 until n).map(i => ZSet.canonValue(r.get(i)))
        (vals, r.getLong(n))
      }
      .sortBy(_._1)(ZSet.canonOrder)
  }

  // ----------------------------------------------------------- conversions

  /** toset (§4.2.1): the underlying set, as a plain DataFrame. */
  def toSetDF: DataFrame = distinctZ.df.drop(W)

  /** Expand a *positive* Z-set into a bag DataFrame (row repeated weight
    * times) — used to hand multisets to the DuckDB oracle.
    */
  def toBagDF: DataFrame = {
    val c = consolidate()
    require(c.df.where(col(W) < 0).isEmpty, "toBagDF: negative multiplicities")
    c.df
      .withColumn("__i", explode(sequence(lit(1L), col(W))))
      .drop(W, "__i")
  }

  /** Mark this Z-set for broadcast in a following join. Incremental operators
    * broadcast the *change-sized* side of each delta-vs-state join: this is
    * the Spark analogue of DBSP's indexed-state lookup (the global
    * auto-broadcast threshold stays disabled; the hint is deliberate).
    */
  def broadcastHint: ZSet = keepZero(broadcast(df))

  // ------------------------------------------------------------ maintenance

  /** Consolidate and materialize (cut lineage). Semantically the identity;
    * stateful stream operators call this on every state update so that tick
    * t's plan does not contain tick t-1's. The eager checkpoint's own job
    * also counts the rows it materializes (a Spark `Observation`), so the
    * result's entry count is known without another action.
    */
  def compact(): ZSet =
    if (knownCount.isDefined) this
    else {
      val rows = Observation()
      val c = consolidate().df.observe(rows, count(lit(1)) as "n")
      val parts = math.max(1, math.min(8, spark.sparkContext.defaultParallelism))
      val materialized = c.coalesce(parts).localCheckpoint()
      new ZSet(materialized, Some(rows.get("n").asInstanceOf[Long]))
    }

  /** Count of physical rows (no consolidation) — cheap way to force a plan. */
  def physicalCount: Long = df.count()
}

object ZSet {
  /** Reserved weight-column name. */
  val W = "__w"

  /** Wrap a DataFrame that already carries a `__w` weight column. */
  def raw(df: DataFrame): ZSet = {
    require(df.columns.contains(W), s"raw: missing weight column $W")
    val cast =
      if (df.schema(W).dataType == LongType) df
      else df.withColumn(W, col(W).cast(LongType))
    new ZSet(cast)
  }

  /** tozset of a bag: duplicates become multiplicities. */
  def fromBag(df: DataFrame): ZSet =
    raw(df.groupBy(df.columns.map(col): _*).agg(count(lit(1)).cast(LongType) as W))

  /** tozset of a set (§4.2.1): weight 1 per distinct row. */
  def fromSet(df: DataFrame): ZSet = raw(df.distinct().withColumn(W, lit(1L)))

  /** Z-set with weights taken from an existing column. */
  def fromWeighted(df: DataFrame, weightCol: String): ZSet =
    raw(df.withColumn(W, col(weightCol).cast(LongType)).drop(weightCol))

  /** The empty Z-set with the given data schema. It is an empty local
    * relation: Spark's optimizer folds it out of joins, unions and
    * aggregates, and scanning it runs no job.
    */
  def empty(spark: SparkSession, schema: StructType): ZSet = {
    val full = StructType(schema.fields :+ StructField(W, LongType, nullable = false))
    new ZSet(spark.createDataFrame(java.util.Collections.emptyList[org.apache.spark.sql.Row](), full),
      Some(0L))
  }

  /** The group of Z-sets over a fixed schema (§4.1: `Z[A]` is abelian). */
  def group(spark: SparkSession, schema: StructType): Group[ZSet] = new Group[ZSet] {
    val zero: ZSet = empty(spark, schema)
    def plus(a: ZSet, b: ZSet): ZSet = a.plus(b)
    def negate(a: ZSet): ZSet = a.negate
    def isZero(a: ZSet): Boolean = a.isEmpty
    override def compact(a: ZSet): ZSet = a.compact()
  }

  /** The group of Z-sets with `z`'s schema. */
  def groupOf(z: ZSet): Group[ZSet] = group(z.spark, z.dataSchema)

  /** The canonical text of one value, shared by every comparison of rows
    * across engines: nulls marked, floating point rounded to 6 places.
    */
  private[repro] def canonValue(v: Any): String = v match {
    case null                         => "∅"
    case d: Double                    => f"$d%.6f"
    case f: Float                     => f"${f.toDouble}%.6f"
    case bd: java.math.BigDecimal     => f"${bd.doubleValue}%.6f"
    case x                            => x.toString
  }

  /** Orders canonical rows by their value sequence, so distinct rows never
    * share a sort key, as values joined into one string can.
    */
  private[repro] val canonOrder: Ordering[Seq[String]] = Ordering.Implicits.seqOrdering
}
