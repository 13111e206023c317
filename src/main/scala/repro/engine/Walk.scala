package repro.engine

import scala.collection.mutable.ArrayBuffer
import repro.disk.DiskSim
import repro.graph.BlockedGraph
import repro.walk.WalkTask

/** A growable buffer of walks, each a packed 128-bit record (§6.1) in two
  * consecutive words of one `Array[Long]`:
  *
  *   word 0 = | walk id (40) | hop (24) |
  *   word 1 = | previous vertex (32) | current vertex (32) |
  *
  * `hop` counts completed steps; `prev == -1` until the first step (the
  * first transition of every model is first-order, §2.1). A record is the
  * 16 bytes per walk that the engines charge on every pool read/write
  * (`CostModel.walkBytes`). Buffers are cleared and refilled, never shrunk,
  * so an engine's pools and buckets stop allocating once they have grown to
  * their peak size.
  */
final class WalkBuffer {
  import WalkBuffer._

  private var words = new Array[Long](2 * InitialWalks)
  private var n = 0
  private var lowestHop = Int.MaxValue

  def length: Int = n
  def isEmpty: Boolean = n == 0
  def nonEmpty: Boolean = n != 0

  @inline def id(k: Int): Long = words(2 * k) >>> HopBits
  @inline def hop(k: Int): Int = (words(2 * k) & HopMask).toInt
  @inline def prev(k: Int): Int = (words(2 * k + 1) >> 32).toInt
  @inline def cur(k: Int): Int = words(2 * k + 1).toInt

  /** Smallest hop among the records appended since the last `clear`
    * (Int.MaxValue when none). `update` does not lower it, so it is exact
    * for a buffer that is only appended to and cleared whole — a pool.
    */
  def minHop: Int = lowestHop

  def add(id: Long, hop: Int, prev: Int, cur: Int): Unit =
    append(pack0(id, hop), pack1(prev, cur))

  /** Append a copy of record `k` of `from`. */
  def addFrom(from: WalkBuffer, k: Int): Unit =
    append(from.words(2 * k), from.words(2 * k + 1))

  /** Overwrite the hop and vertices of record `k`, keeping its id. */
  def update(k: Int, hop: Int, prev: Int, cur: Int): Unit = {
    words(2 * k) = pack0(id(k), hop)
    words(2 * k + 1) = pack1(prev, cur)
  }

  def clear(): Unit = { n = 0; lowestHop = Int.MaxValue }

  private def append(w0: Long, w1: Long): Unit = {
    if (2 * n == words.length) words = java.util.Arrays.copyOf(words, 2 * words.length)
    words(2 * n) = w0
    words(2 * n + 1) = w1
    n += 1
    val h = (w0 & HopMask).toInt
    if (h < lowestHop) lowestHop = h
  }
}

object WalkBuffer {
  private final val HopBits = 24
  private final val HopMask = (1L << HopBits) - 1
  private final val InitialWalks = 16

  /** Walk ids are 40 bits: at most 2^40 walks per task. */
  final val MaxWalks: Long = 1L << (64 - HopBits)

  /** Hops are 24 bits: `maxLen` must stay below 2^24. */
  final val MaxLen: Int = 1 << HopBits

  @inline private def pack0(id: Long, hop: Int): Long = id << HopBits | hop
  @inline private def pack1(prev: Int, cur: Int): Long = prev.toLong << 32 | (cur & 0xffffffffL)
}

/** Per-block walk pools ("walk pool" + disk walk storage of §3). The
  * association rule (traditional = current block; skewed = min(pre, cur)
  * block) is the caller's responsibility. Scheduling strategies read the
  * pools' sizes and each pool's `minHop` (exact, as pools are only appended
  * to and drained whole).
  */
final class WalkPools(val nBlocks: Int) {
  private val pools = Array.fill(nBlocks)(new WalkBuffer)
  // The buffer the last `drain` returned; the next `drain` recycles it.
  private var drained = new WalkBuffer

  def pool(b: Int): WalkBuffer = pools(b)

  /** Append a copy of record `k` of `from` to pool `b`. */
  def add(b: Int, from: WalkBuffer, k: Int): Unit = pools(b).addFrom(from, k)

  def isEmpty: Boolean = pools.forall(_.isEmpty)

  def size(b: Int): Int = pools(b).length

  /** Remove and return the walks of pool `b`, leaving it empty. The
    * returned buffer is valid until the next `drain`, which clears it and
    * puts it back as an empty pool.
    */
  def drain(b: Int): WalkBuffer = {
    val out = pools(b)
    drained.clear()
    pools(b) = drained
    drained = out
    out
  }
}

/** The walk corpus: the full trajectory of every walk of a task, the output
  * of RWNV and DeepWalk (§7.1). Pass one to `WalkEngine.run`.
  *
  * During the run `start`/`step` append one word `id << 32 | vertex` to an
  * append-only log kept in fixed-size chunks, so nothing is boxed or copied
  * per step. `seal` (called by `Walker.finish` before `run` returns) sorts the
  * log by walk id with one stable counting sort into a walk-major corpus:
  * walk `w` is `vertices(offsets(w) until offsets(w + 1))`. A walk's vertices
  * are logged in time order, so the sort keeps them in hop order. Reading the
  * corpus before `seal`, or appending after it, throws IllegalStateException.
  */
final class TraceCollector(val nWalks: Int) {
  import TraceCollector._
  require(nWalks >= 0, s"a corpus of $nWalks walks")

  private var chunks = new Array[Array[Long]](4)
  private var nChunks = 0
  private var chunk: Array[Long] = null
  // Next free slot of `chunk`; ChunkSize forces a new chunk (or the sealed check).
  private var pos = ChunkSize

  private var offsets: Array[Int] = null
  private var vertices: Array[Int] = null

  def start(id: Long, src: Int): Unit = append(id, src)
  def step(id: Long, v: Int): Unit = append(id, v)

  @inline private def append(id: Long, v: Int): Unit = {
    if (pos == ChunkSize) nextChunk()
    chunk(pos) = id << 32 | (v & 0xffffffffL)
    pos += 1
  }

  private def nextChunk(): Unit = {
    if (offsets != null) throw new IllegalStateException("the corpus is sealed: a TraceCollector records one run")
    if (nChunks.toLong * ChunkSize >= MaxVertices)
      throw new IllegalStateException(s"a corpus holds at most $MaxVertices vertices")
    if (nChunks == chunks.length) chunks = java.util.Arrays.copyOf(chunks, 2 * nChunks)
    chunk = new Array[Long](ChunkSize)
    chunks(nChunks) = chunk
    nChunks += 1
    pos = 0
  }

  /** Sort the log into the walk-major corpus and drop it. Idempotent. */
  private[engine] def seal(): Unit = if (offsets == null) {
    val n = if (nChunks == 0) 0 else (nChunks - 1) * ChunkSize + pos
    val off = new Array[Int](nWalks + 1)
    var c = 0
    while (c < nChunks) {
      val words = chunks(c)
      val end = if (c == nChunks - 1) pos else ChunkSize
      var k = 0
      while (k < end) {
        val id = (words(k) >>> 32).toInt
        if (id < 0 || id >= nWalks) throw new IllegalStateException(s"walk $id logged in a corpus of $nWalks walks")
        off(id + 1) += 1
        k += 1
      }
      c += 1
    }
    var w = 0
    while (w < nWalks) { off(w + 1) += off(w); w += 1 }
    // Scatter with off(w) as walk w's cursor; it ends at walk w + 1's start.
    val vs = new Array[Int](n)
    c = 0
    while (c < nChunks) {
      val words = chunks(c)
      val end = if (c == nChunks - 1) pos else ChunkSize
      var k = 0
      while (k < end) {
        val id = (words(k) >>> 32).toInt
        vs(off(id)) = words(k).toInt
        off(id) += 1
        k += 1
      }
      c += 1
    }
    System.arraycopy(off, 0, off, 1, nWalks)
    off(0) = 0
    chunks = null
    chunk = null
    pos = ChunkSize
    vertices = vs
    offsets = off
  }

  private def corpus: Array[Int] = {
    if (offsets == null) throw new IllegalStateException("the corpus is read before the run sealed it")
    offsets
  }

  /** Number of vertices of walk `w`: its start plus one per step. */
  def length(w: Int): Int = { val o = corpus; o(w + 1) - o(w) }

  /** Vertex of walk `w` after `h` steps. */
  def vertex(w: Int, h: Int): Int = {
    val o = corpus
    if (h < 0 || h >= o(w + 1) - o(w)) throw new IndexOutOfBoundsException(s"hop $h of walk $w")
    vertices(o(w) + h)
  }

  /** A copy of walk `w`'s trajectory. */
  def path(w: Int): Array[Int] = { val o = corpus; java.util.Arrays.copyOfRange(vertices, o(w), o(w + 1)) }

  /** The corpus as one boxed buffer per walk, built on first read; not to be
    * modified. Kept for readers of the boxed form; prefer `path`/`vertex`.
    */
  lazy val paths: Array[ArrayBuffer[Int]] = Array.tabulate(nWalks) { w =>
    val o = corpus
    val b = new ArrayBuffer[Int](o(w + 1) - o(w))
    var i = o(w)
    while (i < o(w + 1)) { b += vertices(i); i += 1 }
    b
  }
}

object TraceCollector {
  private[engine] final val ChunkSize = 1 << 13

  /** Vertices a corpus can hold: whole chunks that fit an `Array[Int]`. */
  private final val MaxVertices: Int = Int.MaxValue / ChunkSize * ChunkSize
}

/** Which blocks an engine holds in memory while it advances a walk, and
  * what I/O a step costs to reach its previous and current vertex.
  */
abstract class Residency {
  def holds(block: Int): Boolean

  /** Charge the I/O the step from `cur` (entered from `prev`, -1 before
    * the first step) needs before it samples. Default: none.
    */
  def touch(prev: Int, cur: Int): Unit = ()
}

/** The one walk-step kernel: every engine starts and advances walks through
  * it, so trajectories are engine-independent (deterministic counter RNG)
  * and execution cost, visits and traces are recorded uniformly. Walks are
  * records of a [[WalkBuffer]]; the task must fit its id and hop fields, and
  * a corpus, if given, must hold every walk. Engines return `finish()`.
  */
final class Walker(val bg: BlockedGraph, val task: WalkTask, val sim: DiskSim,
                   visits: Array[Long], trace: TraceCollector) {
  require(task.totalWalks <= WalkBuffer.MaxWalks,
    s"${task.totalWalks} walks exceed the ${WalkBuffer.MaxWalks} a walk record can number")
  require(task.maxLen < WalkBuffer.MaxLen,
    s"maxLen ${task.maxLen} does not fit a walk record's hop field (< ${WalkBuffer.MaxLen})")
  require(trace == null || trace.nWalks >= task.totalWalks,
    s"a corpus of ${trace.nWalks} walks cannot hold the task's ${task.totalWalks}")

  private val g = bg.g
  private val model = task.model
  private val secondOrder = model.isSecondOrder

  /** Append walk `id` at `src` to `into` and record its first vertex. */
  def start(id: Long, src: Int, into: WalkBuffer): Unit = {
    if (visits != null) visits(src) += 1
    if (trace != null) trace.start(id, src)
    into.add(id, 0, -1, src)
  }

  /** Step record `k` of `walks` in place while `mem` holds its current
    * vertex's block. Returns true with the record at the step where the
    * walk left memory, or false once the walk ended (stuck on a dangling
    * vertex, or stopped by the task); an ended record is left stale.
    */
  def advance(walks: WalkBuffer, k: Int, mem: Residency): Boolean = {
    val id = walks.id(k)
    var prev = walks.prev(k)
    var cur = walks.cur(k)
    var hop = walks.hop(k)
    while (mem.holds(bg.blockOf(cur))) {
      mem.touch(prev, cur)
      sim.chargeStep(g.degree(cur), secondOrder && prev >= 0)
      val z = model.sampleNext(g, prev, cur, task.moveDraw(id, hop))
      if (z < 0) return false
      prev = cur
      cur = z
      hop += 1
      if (visits != null) visits(z) += 1
      if (trace != null) trace.step(id, z)
      if (task.stopsAfter(id, hop)) return false
    }
    walks.update(k, hop, prev, cur)
    true
  }

  /** End the run: seal the corpus and return the simulated metrics. */
  def finish(): DiskSim.Metrics = {
    if (trace != null) trace.seal()
    sim.snapshot
  }
}

/** Walk initialization (paper Appendix B): iterate the blocks once
  * sequentially; start each walk at its source and advance it until it
  * leaves its source block or terminates. Afterwards no live walk has its
  * previous and current vertex in the same block — the invariant both the
  * skewed storage and the asynchronous update rely on.
  */
object Init {

  /** Runs initialization, invoking `persist(walks, k)` for every surviving
    * walk (its current vertex is outside its source block); the record is
    * only valid during the call.
    */
  def run(walker: Walker)(persist: (WalkBuffer, Int) => Unit): Unit = {
    val bg = walker.bg
    val sim = walker.sim
    // Group start vertices by block for the sequential init scan.
    val startsByBlock = Array.fill(bg.nBlocks)(new ArrayBuffer[(Int, Int)])
    walker.task.starts.foreach { case (v, c) => if (c > 0) startsByBlock(bg.blockOf(v)) += ((v, c)) }
    val fresh = new WalkBuffer
    var nextId = 0L
    // Walk IDs must be identical across engines: assign in (block, start) order.
    for (b <- 0 until bg.nBlocks if startsByBlock(b).nonEmpty) {
      sim.readBlock(bg.blockOffset(b), bg.blockBytes(b))
      sim.timeSlots += 1
      val source = new Residency { def holds(block: Int): Boolean = block == b }
      startsByBlock(b).foreach { case (v, count) =>
        var k = 0
        while (k < count) {
          fresh.clear()
          walker.start(nextId, v, fresh)
          if (walker.advance(fresh, 0, source)) persist(fresh, 0)
          nextId += 1
          k += 1
        }
      }
    }
  }
}
