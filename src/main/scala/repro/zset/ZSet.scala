package repro.zset

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{Column, DataFrame, Observation, Row, SparkSession, functions}
import org.apache.spark.sql.catalyst.plans.logical.LocalRelation
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String

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
  *
  * Local: a Z-set is *local* when the driver holds its consolidated entries,
  * at most [[ZSet.LocalLimit]] of them, and `df` is a local relation of
  * exactly those entries (a known zero is local). Three things make a local
  * Z-set: a plan that Spark's optimizer reduces to a local relation of at
  * most `LocalLimit` rows (collecting it runs no job), a bounded probe
  * ([[restrictTo]], or a lookup in a trace's [[ZSet.Index]]), and
  * `compact()` of a result of at most `LocalLimit` entries (its checkpoint,
  * collected once). The only other Spark plan ever collected is a trace's
  * state when it builds its index. Between local operands, `plus`,
  * consolidation, ⋈ and × run on the driver; σ, π, map, negation, scaling
  * and distinct stay Spark expressions, which the optimizer folds into a
  * local relation again. A result with more than `LocalLimit` entries, and
  * any result with a non-local operand, is the lazy Spark plan it always
  * was. Local
  * arithmetic follows Spark's: grouping puts nulls together and treats −0.0
  * as 0.0 and NaN as equal to NaN, join keys never match on null, and
  * weight overflow throws.
  */
final class ZSet private (
    val df: DataFrame,
    private val knownCount: Option[Long] = None,
    private val localEntries: Option[Vector[(Row, Long)]] = None)
    extends Serializable {
  import ZSet.{LocalLimit, W}

  def spark: SparkSession = df.sparkSession

  /** Data columns, in DataFrame order (weight column excluded). */
  val dataCols: Seq[String] = df.columns.filterNot(_ == W).toSeq

  /** Schema of the data columns only. */
  def dataSchema: StructType = StructType(df.schema.fields.filterNot(_.name == W))

  /** The entry count, when it is known without a Spark job. */
  private[zset] def knownSize: Option[Long] = knownCount

  /** Known to be the zero Z-set without running a Spark job. */
  private[repro] def isKnownZero: Boolean = knownCount.contains(0L)

  /** The consolidated entries (data values in `dataCols` order, weight) when
    * the driver holds them.
    */
  private def entriesHeld: Option[Vector[(Row, Long)]] =
    if (isKnownZero) Some(Vector.empty) else localEntries

  /** Held by the driver (see "Local" above). */
  private[repro] def isLocal: Boolean = entriesHeld.isDefined

  /** The held entries with their data values in `cols` order. */
  private def entriesIn(cols: Seq[String]): Option[Vector[(Row, Long)]] =
    if (cols == dataCols) entriesHeld
    else {
      val at = cols.map(dataCols.indexOf)
      entriesHeld.map(_.map { case (r, w) => (Row.fromSeq(at.map(r.get)), w) })
    }

  /** The result of a unary operator that maps zero to zero. On a local
    * operand Spark's optimizer folds `out` into a local relation, which is
    * collected without a job.
    */
  private def unary(out: DataFrame): ZSet =
    if (isKnownZero) new ZSet(out, Some(0L))
    else if (localEntries.isDefined) ZSet.localize(out).getOrElse(new ZSet(out))
    else new ZSet(out)

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

  /** Z-set addition (pointwise weight sum). Lazy: does not consolidate,
    * except that two local operands are added on the driver.
    */
  def plus(that: ZSet): ZSet = {
    requireSameCols(that, "plus")
    val cols = (dataCols :+ W).map(col)
    if (that.isKnownZero) new ZSet(df.select(cols: _*), knownCount, localEntries)
    else if (isKnownZero) new ZSet(that.df.select(cols: _*), that.knownCount, that.entriesIn(dataCols))
    else ZSet.fromEntries(df.select(cols: _*).unionByName(that.df.select(cols: _*)),
      for (a <- entriesHeld; b <- that.entriesIn(dataCols)) yield a.iterator ++ b.iterator)
  }

  /** Z-set negation (every weight's sign reversed). */
  def negate: ZSet = unary(df.withColumn(W, -col(W)))

  def minus(that: ZSet): ZSet = plus(that.negate)

  /** Multiply every weight by a constant. */
  def scale(k: Long): ZSet = unary(df.withColumn(W, col(W) * lit(k)))

  /** One row per distinct tuple, weights summed, zero-weight tuples dropped
    * (without data columns: one row of the net weight, if it is non-zero).
    */
  def consolidate(): ZSet =
    if (knownCount.isDefined) this
    else new ZSet(df.groupBy(dataCols.map(col): _*).agg(sum(W) as W).where(col(W) =!= 0))

  // --------------------------------------------------------- set-like operators

  /** `distinct` (Definition 4.3): multiplicity 1 where positive, else absent. */
  def distinctZ: ZSet =
    unary(consolidate().df.where(col(W) > 0).withColumn(W, lit(1L)))

  /** Selection σ: keep tuples satisfying `cond` (a predicate on data columns). */
  def filterZ(cond: Column): ZSet = unary(df.where(cond))

  /** Projection π onto a subset of columns; weights of merged tuples add. */
  def project(cols: String*): ZSet = unary(df.select((cols :+ W).map(col): _*))

  /** Generalized map: SQL projection expressions ("expr AS alias").
    * Linear in the Z-set (weights carried through and summed on collision).
    */
  def mapRows(sqlExprs: String*): ZSet = unary(df.selectExpr(sqlExprs :+ W: _*))

  /** Equi-join on shared key columns; weights multiply (bilinear, Thm 3.4's ⋈).
    * Non-key data columns of the two sides must be disjoint.
    */
  def join(that: ZSet, keys: Seq[String]): ZSet = {
    require(keys.nonEmpty, "join: empty key list — use cartesian")
    val clash = (dataCols.toSet -- keys).intersect(that.dataCols.toSet -- keys)
    require(clash.isEmpty, s"join: non-key column clash: $clash")
    val lw = "__wl"; val rw = "__wr"
    val j = df.withColumnRenamed(W, lw).join(that.df.withColumnRenamed(W, rw), keys)
    product(that, j.withColumn(W, col(lw) * col(rw)).drop(lw, rw), keys)
  }

  /** Cartesian product ×; weights multiply. Column names must be disjoint. */
  def cartesian(that: ZSet): ZSet = {
    val clash = dataCols.toSet.intersect(that.dataCols.toSet)
    require(clash.isEmpty, s"cartesian: column clash: $clash")
    val lw = "__wl"; val rw = "__wr"
    val j = df.withColumnRenamed(W, lw).crossJoin(that.df.withColumnRenamed(W, rw))
    product(that, j.withColumn(W, col(lw) * col(rw)).drop(lw, rw), Nil)
  }

  /** A bilinear result: zero when either operand is a known zero, computed on
    * the driver when both are local (a Cartesian product when `keys` is
    * empty), else the plan `out`.
    */
  private def product(that: ZSet, out: DataFrame, keys: Seq[String]): ZSet =
    if (isKnownZero || that.isKnownZero) new ZSet(out, Some(0L))
    else ZSet.fromEntries(out, for (a <- entriesHeld; b <- that.entriesHeld) yield {
      val (mine, theirs) = (dataCols.zipWithIndex.toMap, that.dataCols.zipWithIndex.toMap)
      // Each output column from the left operand if it has it (join keys
      // included), else from the right.
      val pick: Seq[(Row, Row) => Any] = out.columns.toSeq.filterNot(_ == W).map { c =>
        mine.get(c) match {
          case Some(i) => (l: Row, _: Row) => l.get(i)
          case None    => val j = theirs(c); (_: Row, r: Row) => r.get(j)
        }
      }
      // Join keys never match on null.
      val byKey = b.groupBy { case (r, _) => ZSet.keyOf(r, keys.map(theirs)) }
      for {
        (l, wl) <- a.iterator
        k = ZSet.keyOf(l, keys.map(mine)) if !k.anyNull
        (r, wr) <- byKey.getOrElse(k, Vector.empty).iterator
      } yield (Row.fromSeq(pick.map(_(l, r))), Math.multiplyExact(wl, wr))
    })

  /** The tuples whose `keys` columns match a tuple of the local `by`, as a
    * local Z-set — on the driver if this is local, else by one Spark job: the
    * plan filtered by an `isin` literal of `by`'s keys (all of it when `keys`
    * is empty), collected up to `LocalLimit + 1` rows. `None` when more rows
    * match: the caller falls back to a Spark plan. Keys match as they group,
    * null with null, so the aggregates and distinct find a null tuple's
    * state; a join drops null keys itself.
    */
  private[repro] def restrictTo(by: ZSet, keys: Seq[String]): Option[ZSet] = {
    val wanted = ZSet.keysOf(by, keys)
    val at = keys.map(dataCols.indexOf)
    def matching(es: Iterator[(Row, Long)]) = es.filter { case (r, _) => wanted(ZSet.keyOf(r, at)) }
    entriesHeld match {
      case Some(es) => Some(ZSet.fromEntries(df, Some(matching(es.iterator))))
      case None if keys.isEmpty && knownCount.exists(_ > LocalLimit) => None
      case None =>
        // Each key column is filtered by its wanted values (a superset of
        // the matches, which `matching` makes exact), with −0.0 beside 0.0
        // and nulls by `isNull`, since `isin` compares neither as grouping does.
        val filtered = keys.zipWithIndex.foldLeft(df) { case (d, (k, i)) =>
          val vs = wanted.map(_.get(i))
          val in = col(k).isin(vs.toSeq.flatMap {
            case null                   => Nil
            case x: Double if x == 0.0d => Seq(0.0d, -0.0d)
            case x: Float if x == 0.0f  => Seq(0.0f, -0.0f)
            case x                      => Seq(x)
          }: _*)
          d.where(if (vs.contains(null)) in || col(k).isNull else in)
        }
        val got = filtered.coalesce(1).limit(LocalLimit + 1).collect()
        if (got.length > LocalLimit) None
        else Some(ZSet.fromEntries(df, Some(matching(ZSet.split(df.schema, got)))))
    }
  }

  /** A driver-side hash index of the consolidated entries by `keys`
    * ([[ZSet.Index]]), built by one `collect` of `df`. `None`, without a
    * job, when the columns do not group on the driver as in Spark.
    */
  private[zset] def index(keys: Seq[String]): Option[ZSet.Index] =
    Option.when(ZSet.groupable(df.schema)) {
      val i = new ZSet.Index(dataCols, keys)
      i.add(ZSet.split(df.schema, df.collect()))
      i
    }

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
    c.df.select((c.dataCols :+ W).map(col): _*).collect().toSeq
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

  /** Mark this Z-set for broadcast in a following join. Only the fallback
    * of `IncrementalBilinear.probed` uses it: a state × change product whose
    * operands' probes are not bounded broadcasts its change side (the
    * global auto-broadcast threshold stays disabled; the hint is
    * deliberate). A bounded probe, or a trace's driver-side index, is how
    * the operators look state up.
    */
  def broadcastHint: ZSet = new ZSet(broadcast(df), knownCount, localEntries)

  // ---------------------------------------------------------- aggregation

  /** GROUP BY `keys` (§7.3): one row of weight 1 per group, carrying each
    * aggregate of `aggs`. Over a local Z-set the per-row expressions are
    * evaluated by Spark over the local relation (no job) and the groups are
    * folded on the driver; otherwise this is Spark's `groupBy`. With no keys
    * it is the global aggregate, one row even over an empty input.
    */
  private[repro] def aggregate(keys: Seq[String], aggs: Seq[ZSet.Agg]): ZSet = {
    val plan = df.groupBy(keys.map(col): _*)
      .agg(aggs.head.column, aggs.tail.map(_.column): _*)
      .withColumn(W, lit(1L))
    val perRow = df.select(keys.map(col) ++ aggs.map(a => a.perRow as a.name): _*)
    val folds = aggs.map(a => if (a.min) ZSet.minOf _ else ZSet.sumOf _)
    ZSet.fromEntries(plan, for {
      _ <- entriesHeld
      rows <- ZSet.collectLocal(perRow)
      groups <- ZSet.groupRows(rows.iterator, keys.size, folds)
    } yield {
      val out = if (groups.isEmpty && keys.isEmpty) Iterable(Row.fromSeq(aggs.map(_ => null))) else groups
      out.iterator.map(_ -> 1L)
    })
  }

  // ------------------------------------------------------------ maintenance

  /** Consolidate and materialize (cut lineage). Semantically the identity;
    * stateful stream operators call this on every state update so that tick
    * t's plan does not contain tick t-1's. A plan the optimizer reduces to a
    * local relation of at most `LocalLimit` rows is collected (no job) and
    * becomes local. Any other plan is checkpointed; the eager checkpoint's
    * own job also counts the rows it materializes (a Spark `Observation`), so
    * the result's entry count is known without another action. A checkpoint
    * of at most `LocalLimit` entries whose columns group on the driver is
    * collected by one more job (none when it is empty) and the result is
    * local, so small state stays on the driver and nothing refers to the
    * checkpoint; a larger one stays Spark-held with its known count.
    */
  def compact(): ZSet =
    if (knownCount.isDefined) this
    else ZSet.localize(df).getOrElse {
      val rows = Observation()
      val c = consolidate().df.observe(rows, count(lit(1)) as "n")
      val parts = math.max(1, math.min(8, spark.sparkContext.defaultParallelism))
      val materialized = c.coalesce(parts).localCheckpoint()
      val n = rows.get("n").asInstanceOf[Long]
      if (n <= LocalLimit && ZSet.groupable(materialized.schema)) {
        val got = if (n == 0L) Array.empty[Row] else materialized.collect()
        ZSet.fromEntries(materialized, Some(ZSet.split(materialized.schema, got)))
      } else new ZSet(materialized, Some(n))
    }

  /** Count of physical rows (no consolidation) — cheap way to force a plan. */
  def physicalCount: Long = df.count()
}

object ZSet {
  /** Reserved weight-column name. */
  val W = "__w"

  /** The most entries a local Z-set holds: the largest power of two at
    * which a bounded probe still costs its fixed ~110 ms (Spark 4.1.2,
    * `local[4]`; it costs ~300 ms, a compaction's worth, at 4096 keys). A
    * 6000-row change, 20% of `orders_batch`'s R, stays in Spark.
    */
  private[repro] val LocalLimit = 1024

  /** One aggregate of [[ZSet.aggregate]]: SUM of the per-row expression
    * `perRow`, or its MIN (nulls ignored), named `name`.
    */
  private[repro] final case class Agg(name: String, perRow: Column, min: Boolean = false) {
    def column: Column = (if (min) functions.min(perRow) else sum(perRow)) as name
  }

  /** Wrap a DataFrame that already carries a `__w` weight column. */
  def raw(df: DataFrame): ZSet = {
    require(df.columns.contains(W), s"raw: missing weight column $W")
    val cast =
      if (df.schema(W).dataType == LongType) df
      else df.withColumn(W, col(W).cast(LongType))
    localize(cast).getOrElse(new ZSet(cast))
  }

  /** tozset of a bag: duplicates become multiplicities. */
  def fromBag(df: DataFrame): ZSet =
    raw(df.groupBy(df.columns.toSeq.map(col): _*).agg(count(lit(1)).cast(LongType) as W))

  /** tozset of a set (§4.2.1): weight 1 per distinct row. */
  def fromSet(df: DataFrame): ZSet = raw(df.distinct().withColumn(W, lit(1L)))

  /** The empty Z-set with the given data schema. It is an empty local
    * relation: Spark's optimizer folds it out of joins, unions and
    * aggregates, and scanning it runs no job.
    */
  def empty(spark: SparkSession, schema: StructType): ZSet = {
    val full = StructType(schema.fields :+ StructField(W, LongType, nullable = false))
    new ZSet(spark.createDataFrame(java.util.Collections.emptyList[Row](), full), Some(0L))
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

  // ------------------------------------------------------ local Z-sets

  /** The rows of `df` if Spark's optimizer reduces it to a local relation of
    * at most `LocalLimit` rows; collecting those runs no job. Only plans
    * whose every leaf is a local relation are optimized to find out.
    */
  private def collectLocal(df: DataFrame): Option[Array[Row]] = {
    val qe = df.queryExecution
    if (!qe.analyzed.collectLeaves().forall(_.isInstanceOf[LocalRelation])) None
    else qe.optimizedPlan match {
      case l: LocalRelation if l.data.size <= LocalLimit => Some(df.collect())
      case _ => None
    }
  }

  /** `df` (a weighted plan) as a local Z-set, if [[collectLocal]] applies
    * and its values group on the driver exactly as in Spark.
    */
  private def localize(df: DataFrame): Option[ZSet] =
    if (!groupable(df.schema)) None
    else collectLocal(df).map(rows => fromEntries(df, Some(split(df.schema, rows))))

  /** Whether every column's driver-side values compare as Spark compares
    * them.
    */
  private def groupable(schema: StructType): Boolean = schema.forall(_.dataType match {
    case _: NumericType | StringType | BooleanType | DateType | TimestampType | TimestampNTZType => true
    case _ => false
  })

  /** Collected rows of a weighted plan as (data values, weight) entries. */
  private def split(schema: StructType, rows: Array[Row]): Iterator[(Row, Long)] = {
    val w = schema.fieldIndex(W)
    val data = schema.indices.filterNot(_ == w)
    rows.iterator.map(r => (Row.fromSeq(data.map(r.get)), r.getLong(w)))
  }

  /** The Z-set that `plan` evaluates to, given its entries when the driver
    * computed them: local if they consolidate to at most `LocalLimit`
    * tuples, else the lazy `plan`.
    */
  private def fromEntries(plan: DataFrame, entries: Option[Iterator[(Row, Long)]]): ZSet = {
    val consolidated = entries.flatMap { es =>
      val rows = es.map { case (r, w) => Row.fromSeq(r.toSeq :+ w) }
      val nData = plan.columns.length - 1
      groupRows(rows, nData, Seq(sumOf), LocalLimit).map(_.iterator.collect {
        case r if r.getLong(nData) != 0L => (Row.fromSeq(r.toSeq.take(nData)), r.getLong(nData))
      }.toVector)
    }
    consolidated.fold(new ZSet(plan)) { es =>
      val w = plan.schema.fieldIndex(W)
      val rows = es.map { case (r, n) => Row.fromSeq(r.toSeq.patch(w, Seq(n), 0)) }
      new ZSet(plan.sparkSession.createDataFrame(rows.asJava, plan.schema), Some(es.size.toLong), Some(es))
    }
  }

  /** Spark's GROUP BY on the driver: rows grouped by their first `nKeys`
    * values, each further value folded with its `folds` function. Nulls
    * group together, −0.0 with 0.0, NaN with NaN; keys come out normalized.
    * `None` as soon as there are more than `limit` groups.
    */
  private def groupRows(rows: Iterator[Row], nKeys: Int, folds: Seq[(Any, Any) => Any],
                           limit: Int = Int.MaxValue): Option[Iterable[Row]] = {
    val groups = mutable.LinkedHashMap.empty[Row, Array[Any]]
    val ok = rows.forall { r =>
      val k = Row.fromSeq((0 until nKeys).map(i => normalize(r.get(i))))
      groups.get(k) match {
        case Some(acc) => folds.indices.foreach(i => acc(i) = folds(i)(acc(i), r.get(nKeys + i)))
        case None      => groups(k) = Array.tabulate(folds.size)(i => r.get(nKeys + i))
      }
      groups.size <= limit
    }
    Option.when(ok)(groups.map { case (k, acc) => Row.fromSeq(k.toSeq ++ acc) })
  }

  /** Spark's SUM of two values: nulls ignored, long overflow throws. */
  private def sumOf(a: Any, b: Any): Any = (a, b) match {
    case (null, y)             => y
    case (x, null)             => x
    case (x: Long, y: Long)     => Math.addExact(x, y)
    case (x: Double, y: Double) => x + y
    case (x, y)                => sys.error(s"sum of ${x.getClass} and ${y.getClass}")
  }

  /** Spark's MIN of two values: nulls ignored, −0.0 equal to 0.0, NaN above
    * every other double, strings in UTF-8 byte order.
    */
  private def minOf(a: Any, b: Any): Any = (a, b) match {
    case (null, y) => y
    case (x, null) => x
    case (x, y)    => if (compare(y, x) < 0) y else x
  }

  private def compare(a: Any, b: Any): Int = (a, b) match {
    case (x: Double, y: Double) => if (x == y) 0 else java.lang.Double.compare(x, y)
    case (x: Float, y: Float)   => if (x == y) 0 else java.lang.Float.compare(x, y)
    case (x: String, y: String) => UTF8String.fromString(x).compareTo(UTF8String.fromString(y))
    case (x: Comparable[_], y)  => x.asInstanceOf[Comparable[Any]].compareTo(y)
    case (x, y)                => sys.error(s"cannot compare ${x.getClass} and ${y.getClass}")
  }

  /** A value as Spark groups it: −0.0 is 0.0, every NaN the same NaN. */
  private def normalize(v: Any): Any = v match {
    case d: Double if d == 0.0d || d.isNaN => if (d.isNaN) Double.NaN else 0.0d
    case f: Float if f == 0.0f || f.isNaN  => if (f.isNaN) Float.NaN else 0.0f
    case x                                 => x
  }

  /** The values of `r` at `at`, normalized as Spark groups them. */
  private def keyOf(r: Row, at: Seq[Int]): Row = Row.fromSeq(at.map(i => normalize(r.get(i))))

  /** The `keys` values of the local `by`'s tuples, normalized. */
  private def keysOf(by: ZSet, keys: Seq[String]): Set[Row] = {
    require(by.isLocal, "probe: the probing Z-set must be local")
    val at = keys.map(by.dataCols.indexOf)
    by.entriesHeld.get.iterator.map { case (r, _) => keyOf(r, at) }.toSet
  }

  /** A driver-side hash index of consolidated entries, after differential
    * dataflow's arrangements: the entries (values in `cols` order,
    * normalized as Spark groups them, with their weights) bucketed by their
    * `keys` values, so a probe reads only the buckets of its keys and
    * matches keys as they group (null with null, −0.0 with 0.0, NaN with
    * NaN). Adding entries sums weights, overflow-checked, and drops zeros.
    */
  private[zset] final class Index(cols: Seq[String], keys: Seq[String]) {
    private val at = keys.map(cols.indexOf)
    private val buckets = mutable.HashMap.empty[Row, mutable.HashMap[Row, Long]]
    private var entries = 0

    /** The number of entries held. */
    def size: Int = entries

    /** Add the entries of `d`; `false`, adding nothing, when `d` is not local. */
    def add(d: ZSet): Boolean = d.entriesIn(cols).exists { es => add(es.iterator); true }

    private[ZSet] def add(es: Iterator[(Row, Long)]): Unit = es.foreach { case (r, w) =>
      val row = keyOf(r, 0 until r.length)
      val key = keyOf(row, at)
      val bucket = buckets.getOrElseUpdate(key, mutable.HashMap.empty)
      val sum = Math.addExact(bucket.getOrElse(row, 0L), w)
      if (sum != 0L) { if (bucket.put(row, sum).isEmpty) entries += 1 }
      else if (bucket.remove(row).isDefined) {
        entries -= 1
        if (bucket.isEmpty) buckets.remove(key)
      }
    }

    /** The same entries bucketed by `other` (re-bucketed on the driver when
      * it differs from `keys`).
      */
    def on(other: Seq[String]): Index =
      if (other == keys) this
      else {
        val i = new Index(cols, other)
        i.add(buckets.valuesIterator.flatMap(_.iterator))
        i
      }

    /** The entries whose keys match a tuple of the local `by`, as a local
      * Z-set with `plan`'s schema; `None` when more than `LocalLimit` match.
      */
    def restrictTo(by: ZSet, plan: DataFrame): Option[ZSet] = {
      val found = keysOf(by, keys).iterator.flatMap(k => buckets.get(k).iterator.flatMap(_.iterator))
      val got = found.take(LocalLimit + 1).toVector
      Option.when(got.size <= LocalLimit)(fromEntries(plan, Some(got.iterator)))
    }
  }

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
