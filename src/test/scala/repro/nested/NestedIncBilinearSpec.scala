package repro.nested

import scala.util.Random

import repro.core.IncrementalJoin
import repro.zset.ZSet
import repro.{SparkSpec, ZSetFixtures}

/** Validates the nested incremental join, Theorem 3.4 at the outer clock
  * around the flat rule lifted (expanded,
  * `IᵢIₒ(a)⋈b + Iₒ(a)⋈Zᵢ(b) + Iᵢ(a)⋈Zₒ(b) + a⋈ZᵢZₒ(b)`), whose states are
  * traces probed with the changes, on Z-sets with a nullable key: against
  * the brute-force `D ∘ ↑D ∘ ↑↑⋈ ∘ ↑I ∘ I` on random ragged matrices (each
  * computed cell against the zero-padded matrix's) and on local, Spark-held
  * and mixed changes, and against the flat [[IncrementalJoin]] on one outer
  * tick.
  */
class NestedIncBilinearSpec extends SparkSpec with ZSetFixtures {

  private val keys = Seq("k")
  private val join = (a: ZSet, b: ZSet) => a.join(b, keys)

  /** Random changes of the two operands: up to three weighted rows each,
    * over (`k`, `v`) and (`k`, `u`).
    */
  private def cellA(rnd: Random): ZSet = ZSet.raw(randKV(rnd, "k", "v", maxRows = 3))
  private def cellB(rnd: Random): ZSet = ZSet.raw(randKV(rnd, "k", "u", maxRows = 3))

  private def nestedJoin(a0: ZSet, b0: ZSet) =
    new NestedIncrementalBilinear(keys, join)(ZSet.groupOf(a0), ZSet.groupOf(b0))

  /** The brute force on `a` and `b` (rows of equal length in the two), with
    * every row padded by zeros to the longest one.
    */
  private def brutePadded(a: Seq[Seq[ZSet]], b: Seq[Seq[ZSet]]): Seq[Seq[ZSet]] = {
    val (gA, gB) = (ZSet.groupOf(a.head.head), ZSet.groupOf(b.head.head))
    val brute = new NestedIncrementalBinaryBrute(join)(gA, gB, ZSet.groupOf(join(a.head.head, b.head.head)))
    val width = a.map(_.size).max
    a.zip(b).map { case (ra, rb) =>
      brute.newOuterTick()
      ra.padTo(width, gA.zero).zip(rb.padTo(width, gB.zero)).map { case (x, y) => brute.step(x, y) }
    }
  }

  /** Runs `op` on `a` and `b`, asserting every cell it computes equal to
    * `expected`'s.
    */
  private def assertCells(op: NestedIncrementalBilinear, a: Seq[Seq[ZSet]], b: Seq[Seq[ZSet]],
      expected: Seq[Seq[ZSet]], clue: String): Unit =
    for (((ra, rb), t1) <- a.zip(b).zipWithIndex) {
      op.newOuterTick()
      for (((x, y), t2) <- ra.zip(rb).zipWithIndex) {
        val o = op.step(x, y)
        assert(o.zequals(expected(t1)(t2)),
          s"$clue: mismatch at ($t1, $t2): ${o.entries()} vs ${expected(t1)(t2).entries()}")
      }
    }

  test("ragged rows with zero tails agree with zero-padded rectangular evaluation") {
    val rnd = new Random(23)
    def matrices(lengths: Seq[Int]) = (lengths.map(Seq.fill(_)(cellA(rnd))), lengths.map(Seq.fill(_)(cellB(rnd))))
    // Rows of 2, 1 and 3 cells, with a zero change on each side of the last.
    val (ha, hb) = matrices(Seq(2, 1, 3))
    val zeroA = ZSet.groupOf(ha.head.head).zero
    val zeroB = ZSet.groupOf(hb.head.head).zero
    val handWritten = (ha.updated(2, ha(2).updated(1, zeroA)), hb.updated(2, hb(2).updated(0, zeroB)))
    // Then 1–4 rows, each 1–4 long, so a row may be shorter than an earlier one.
    val random = Seq.fill(16)(matrices(Seq.fill(1 + rnd.nextInt(4))(1 + rnd.nextInt(4))))
    for (((a, b), trial) <- (handWritten +: random).zipWithIndex)
      assertCells(nestedJoin(a.head.head, b.head.head), a, b, brutePadded(a, b), s"input $trial")
  }

  test("single outer tick degenerates to the flat incremental product (Thm 3.4)") {
    val rnd = new Random(99)
    val (as, bs) = (Seq.fill(8)(cellA(rnd)), Seq.fill(8)(cellB(rnd)))
    val nested = nestedJoin(as.head, bs.head)
    val flat = new IncrementalJoin(keys)
    nested.newOuterTick()
    for (((a, b), t) <- as.zip(bs).zipWithIndex) {
      val (n, f) = (nested.step(a, b), flat.step(a, b))
      assert(n.zequals(f), s"tick $t: ${n.entries()} vs ${f.entries()}")
    }
  }

  test("4-term form ≡ brute force for Z-set joins on a nullable key, local, Spark-held and mixed") {
    val rnd = new Random(17)
    val (rows, cols) = (3, 3)
    def matrix(cells: Seq[ZSet]) = cells.grouped(cols).toSeq
    val as = Seq.fill(rows * cols)(randKV(rnd, "k", "v", maxRows = 3))
    val bs = Seq.fill(rows * cols)(randKV(rnd, "k", "u", maxRows = 3))
    val brute = brutePadded(matrix(as.map(ZSet.raw)), matrix(bs.map(ZSet.raw)))
    for (((m, da), (_, db)) <- modes(as).zip(modes(bs, _ % 2 == 0)))
      assertCells(nestedJoin(da.head, db.head), matrix(da), matrix(db), brute, m)
  }
}
