package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

import repro.jobs.Jobs

/** Base for every test: one local-mode SparkSession for the whole run,
  * built by `Jobs.session` with the experiments' config.
  *
  * The test JVM's heap (the driver's, in local mode) is set by
  * `Test / javaOptions` in build.sbt: SPARK_DRIVER_MEM when it is set, else
  * half of the physical memory, clamped to 2–8 GB. Broadcast joins are
  * disabled (`autoBroadcastJoinThreshold = -1`), so a join broadcasts only
  * where the code asks for it.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = Jobs.session("repro")
    // One line in test output with the heap setting and the parallelism the
    // tests ran with.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
