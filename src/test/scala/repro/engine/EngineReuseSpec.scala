package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.walk.WalkTask
import EngineTestKit._

/** An engine instance carries no state from one run to the next: running it
  * twice on the same graph and task gives the same metrics, corpus and
  * visits. Scheduling strategies are shared by every run of their engine,
  * so one that remembered its cycle position would fail here.
  */
class EngineReuseSpec extends AnyFunSuite {
  private val bg = TestGraphs.blocked(TestGraphs.connected(150, 300, seed = 61), 6)

  private def assertReusable(engines: Seq[WalkEngine], task: WalkTask): Unit =
    for (e <- engines) {
      val first = runTraced(e, bg, task)
      val second = runTraced(e, bg, task)
      assert(second.m == first.m, e.name)
      assert(corpus(second.trace) == corpus(first.trace), e.name)
      assert(second.visits.toSeq == first.visits.toSeq, e.name)
    }

  test("a second-order engine run twice gives the same metrics and corpus") {
    assertReusable(secondOrderEngines, WalkTask.rwnv(bg.g, p = 0.25, q = 4.0, walksPerVertex = 1, len = 20))
  }

  test("a first-order engine run twice gives the same metrics and corpus") {
    assertReusable(firstOrderEngines, WalkTask.deepwalk(bg.g, walksPerVertex = 1, len = 20))
  }
}
