package repro.engine

import repro.disk.DiskSim
import repro.graph.BlockedGraph
import repro.walk.WalkTask

/** SOGW and SGSC baselines (§7.1).
  *
  * SOGW is the naive second-order port of GraphWalker: walks are stored with
  * their current block (traditional storage); the current block is chosen by
  * GraphWalker's state-aware strategy; a walk advances while it stays inside
  * the current block; whenever a step needs the previous vertex's adjacency
  * and that vertex is not resident, a random light vertex I/O is charged.
  * Two block slots are kept in memory (the block about to be loaded is free
  * if it is already resident), matching the paper's memory-equalized setup.
  *
  * SGSC adds a static vertex cache: before execution the top-degree vertices
  * (degree sum >= the largest block's edge count) are pinned in memory — the
  * cache fill is charged as a full sequential scan of the graph — and
  * previous-vertex lookups that hit the cache cost nothing.
  */
final class SogwEngine(staticCache: Boolean) extends WalkEngine {
  def name: String = if (staticCache) "SGSC" else "SOGW"

  def run(bg: BlockedGraph, task: WalkTask, sim: DiskSim,
          visits: Array[Long] = null, trace: TraceCollector = null): DiskSim.Metrics = {
    val g = bg.g
    val nB = bg.nBlocks
    val secondOrder = task.model.isSecondOrder

    // SGSC static cache: top-degree vertices until the degree sum reaches
    // the maximum block edge count (§7.1 baseline definition).
    val cached: java.util.BitSet =
      if (!staticCache) null
      else {
        val budget = (0 until nB).map(bg.edgesInBlock).max
        val byDeg = (0 until g.nV).sortBy(v => -g.degree(v))
        val bits = new java.util.BitSet(g.nV)
        var sum = 0L
        var i = 0
        while (i < byDeg.length && sum < budget) {
          bits.set(byDeg(i)); sum += g.degree(byDeg(i)); i += 1
        }
        sim.chargeCacheInit(bg.totalBytes)
        bits
      }

    val walker = new Walker(bg, task, sim, visits, trace)
    val driver = new CurrentBlockDriver(walker, new Scheduling.GraphWalkerMix())
    Init.run(walker, driver.pools)

    // Two-slot block memory: a load is free if the block is still resident.
    val resident = new java.util.ArrayDeque[Int](2)
    driver.run { (b, walks) =>
      if (!resident.contains(b)) {
        sim.readBlock(bg.blockOffset(b), bg.blockBytes(b))
        resident.addLast(b)
        if (resident.size > 2) resident.removeFirst()
      }
      sim.walkIO(walks.length)
      // A second-order step reads its previous vertex's adjacency: one light
      // vertex I/O unless that vertex is in a resident block or the cache.
      // A walk pooled at b has its previous vertex outside b only on its
      // first step of the slot, so one check per walk finds every such read.
      if (secondOrder) {
        for (l <- 0 until walks.nParts; j <- 0 until walks.part(l).pageCount) {
          val page = walks.part(l).page(j)
          var k = 0
          while (k < page.length) {
            val prev = page.prev(k)
            if (prev >= 0) {
              val pb = bg.blockOf(prev)
              val inMem = pb == b || resident.contains(pb) || (cached != null && cached.get(prev))
              if (!inMem) sim.readVertices(1)
            }
            k += 1
          }
        }
      }
      walker.advanceAll(walks, b, Walker.Fixed, marks = false, driver.pools)
      walker.chargeSteps(b)
      sim.walkIO(walker.survivors(b))
    }
  }
}
