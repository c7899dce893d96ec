package repro.harness

import repro.SparkSpec

/** Every experiment of EXPERIMENTS.md at its toy size: its run, with the
  * correctness checks inside it, and its count-based shape checks. The
  * wall-clock checks hold only at full size (`Experiments.main`).
  */
class ExperimentsSpec extends SparkSpec {
  Experiments.all.foreach { e =>
    test(s"${e.id} at toy size: its count-based checks hold") {
      val failed = e(spark, e.toy).filterNot(c => c.wallClock || c.holds)
      assert(failed.isEmpty, failed.map(_.claim).mkString("; "))
    }
  }
}
