package repro.nested

import scala.util.Random

import repro.zset.ZSet
import repro.{SparkSpec, ZSetFixtures}

/** Validates the 4-term nested incremental bilinear operator
  * `IᵢIₒ(a)×b + Iₒ(a)×Zᵢ(b) + Iᵢ(a)×Zₒ(b) + a×ZᵢZₒ(b)` against the
  * brute-force `D ∘ ↑D ∘ ↑↑× ∘ ↑I ∘ I` on randomized nested streams: pure
  * group values (ℤ and finite maps), so the algebra is checked on hundreds
  * of matrices, and Z-set joins, whose states are traces probed with the
  * changes.
  */
class NestedIncBilinearSpec extends SparkSpec with ZSetFixtures {

  private def randMatrix(rnd: Random, rows: Int, cols: Int): Seq[Seq[Long]] =
    Seq.fill(rows)(Seq.fill(cols)(rnd.nextLong(11) - 5))

  private def run2[A, B, C](
      mkOpt: => NestedIncrementalBilinear[A, B, C],
      mkBrute: => NestedIncrementalBinaryBrute[A, B, C],
      a: Seq[Seq[A]], b: Seq[Seq[B]]): (Seq[Seq[C]], Seq[Seq[C]]) = {
    val opt = mkOpt
    val brute = mkBrute
    val o1 = a.zip(b).map { case (ra, rb) =>
      opt.newOuterTick(); ra.zip(rb).map { case (x, y) => opt.step(x, y) }
    }
    val o2 = a.zip(b).map { case (ra, rb) =>
      brute.newOuterTick(); ra.zip(rb).map { case (x, y) => brute.step(x, y) }
    }
    (o1, o2)
  }

  test("4-term form ≡ brute force for ℤ multiplication (randomized)") {
    val rnd = new Random(7)
    for (trial <- 0 until 40) {
      val rows = 1 + rnd.nextInt(5)
      val cols = 1 + rnd.nextInt(5)
      val a = randMatrix(rnd, rows, cols)
      val b = randMatrix(rnd, rows, cols)
      val (opt, brute) = run2[Long, Long, Long](
        new NestedIncrementalBilinear[Long, Long, Long](_ * _),
        new NestedIncrementalBinaryBrute[Long, Long, Long](_ * _),
        a, b)
      assert(opt == brute, s"trial $trial: a=$a b=$b")
    }
  }

  test("4-term form ≡ brute force for map intersection-with-product (a Z-set-like join)") {
    type M = Map[Int, Long]
    // Bilinear: (a ⋈ b)[k] = a[k]·b[k] — the scalar skeleton of an equi-join.
    def times(a: M, b: M): M =
      a.keySet.intersect(b.keySet).iterator
        .map(k => k -> a(k) * b(k)).filter(_._2 != 0L).toMap
    def randM(rnd: Random): M =
      (0 until 3).map(_ => rnd.nextInt(4) -> (rnd.nextLong(7) - 3)).filter(_._2 != 0L).toMap

    val rnd = new Random(13)
    for (trial <- 0 until 40) {
      val rows = 1 + rnd.nextInt(4)
      val cols = 1 + rnd.nextInt(4)
      val a = Seq.fill(rows)(Seq.fill(cols)(randM(rnd)))
      val b = Seq.fill(rows)(Seq.fill(cols)(randM(rnd)))
      val (opt, brute) = run2[M, M, M](
        new NestedIncrementalBilinear[M, M, M](times),
        new NestedIncrementalBinaryBrute[M, M, M](times),
        a, b)
      assert(opt == brute, s"trial $trial")
    }
  }

  test("single outer tick degenerates to the flat incremental product (Thm 3.4)") {
    val rnd = new Random(99)
    val a = Seq(Seq.fill(8)(rnd.nextLong(21) - 10))
    val b = Seq(Seq.fill(8)(rnd.nextLong(21) - 10))
    val opt = new NestedIncrementalBilinear[Long, Long, Long](_ * _)
    opt.newOuterTick()
    val out = a.head.zip(b.head).map { case (x, y) => opt.step(x, y) }
    // Flat Thm 3.4 reference.
    var ia = 0L; var ib = 0L
    val ref = a.head.zip(b.head).map { case (da, db) =>
      val o = da * db + ia * db + da * ib; ia += da; ib += db; o
    }
    assert(out == ref)
  }

  test("ragged rows with zero tails agree with zero-padded rectangular evaluation") {
    // Zero-a.e. rows of different lengths: evaluating the tail explicitly
    // (padded) or not at all (ragged) must not change later rows' outputs.
    val a = Seq(Seq(3L, 1L), Seq(2L), Seq(1L, 0L, 4L))
    val b = Seq(Seq(1L, -1L), Seq(5L), Seq(0L, 2L, 1L))
    def pad(m: Seq[Seq[Long]], len: Int) = m.map(r => r.padTo(len, 0L))
    val (ragged, _) = run2[Long, Long, Long](
      new NestedIncrementalBilinear[Long, Long, Long](_ * _),
      new NestedIncrementalBinaryBrute[Long, Long, Long](_ * _),
      a, b)
    val opt2 = new NestedIncrementalBilinear[Long, Long, Long](_ * _)
    val padded = pad(a, 3).zip(pad(b, 3)).map { case (ra, rb) =>
      opt2.newOuterTick(); ra.zip(rb).map { case (x, y) => opt2.step(x, y) }
    }
    ragged.zip(padded).foreach { case (rr, rp) =>
      assert(rr == rp.take(rr.size))
    }
  }

  test("4-term form ≡ brute force for Z-set joins on a nullable key, local, Spark-held and mixed") {
    val rnd = new Random(17)
    val (rows, cols, keys) = (3, 3, Seq("k"))
    def matrix(cells: Seq[ZSet]) = cells.grouped(cols).toSeq
    val as = Seq.fill(rows * cols)(randKV(rnd, "k", "v", maxRows = 3))
    val bs = Seq.fill(rows * cols)(randKV(rnd, "k", "u", maxRows = 3))
    val (a0, b0) = (ZSet.raw(as.head), ZSet.raw(bs.head))
    val (gA, gB, gC) = (ZSet.groupOf(a0), ZSet.groupOf(b0), ZSet.groupOf(a0.join(b0, keys)))
    val (_, brute) = run2[ZSet, ZSet, ZSet](
      new NestedIncrementalBilinear(Bilinear.zsets(keys)(_.join(_, keys)))(gA, gB, gC),
      new NestedIncrementalBinaryBrute[ZSet, ZSet, ZSet](_.join(_, keys))(gA, gB, gC),
      matrix(as.map(ZSet.raw)), matrix(bs.map(ZSet.raw)))
    for (((m, da), (_, db)) <- modes(as).zip(modes(bs, _ % 2 == 0))) {
      val op = new NestedIncrementalBilinear(Bilinear.zsets(keys)(_.join(_, keys)))(gA, gB, gC)
      for (((ra, rb), t1) <- matrix(da).zip(matrix(db)).zipWithIndex) {
        op.newOuterTick()
        for (((x, y), t2) <- ra.zip(rb).zipWithIndex) {
          val o = op.step(x, y)
          assert(o.zequals(brute(t1)(t2)), s"$m: mismatch at ($t1, $t2): ${o.entries()} vs ${brute(t1)(t2).entries()}")
        }
      }
    }
  }
}
