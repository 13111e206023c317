package repro.engine

import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}
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
  * their peak size. A buffer holds at most `MaxRecords` records.
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

  /** Whether record `k`'s walk ended in the last `Walker.advanceAll`. */
  @inline def ended(k: Int): Boolean = words(2 * k + 1) == Ended

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

  /** Mark record `k`'s walk as ended, keeping its id. */
  private[engine] def end(k: Int): Unit = words(2 * k + 1) = Ended

  def clear(): Unit = { n = 0; lowestHop = Int.MaxValue }

  private def append(w0: Long, w1: Long): Unit = {
    if (2 * n == words.length) words = java.util.Arrays.copyOf(words, grown(words.length))
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

  /** Records a buffer can hold: their words fill an array of 2^30 longs,
    * and doubling it once more overflows `Int`.
    */
  final val MaxRecords: Int = 1 << 29

  // prev = cur = -1: no vertex, so no live record has it.
  private final val Ended = -1L

  /** The word count a full buffer of `words` words grows to. */
  private[engine] def grown(words: Int): Int = {
    require(words < 2 * MaxRecords, s"a walk buffer holds at most $MaxRecords records")
    2 * words
  }

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
  * per step; after each sweep `Walker` appends its lanes' logs of the same
  * words. `seal` (called by `Walker.finish` before `run` returns) sorts the
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
    chunk(pos) = word(id, v)
    pos += 1
  }

  /** Append the first `n` words of `log`, each `word(id, vertex)`. */
  private[engine] def appendAll(log: Array[Long], n: Int): Unit = {
    var k = 0
    while (k < n) {
      if (pos == ChunkSize) nextChunk()
      val m = math.min(n - k, ChunkSize - pos)
      System.arraycopy(log, k, chunk, pos, m)
      pos += m
      k += m
    }
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

  /** The log word of walk `id` at vertex `v`. */
  @inline private[engine] def word(id: Long, v: Int): Long = id << 32 | (v & 0xffffffffL)

  /** Vertices a corpus can hold: whole chunks that fit an `Array[Int]`. */
  private final val MaxVertices: Int = Int.MaxValue / ChunkSize * ChunkSize
}

/** Which blocks an engine holds in memory while it advances walks, and which
  * vertex reads a step costs. Every lane of a sweep calls `holds` and
  * `misses` at once, so they only read; `touch` charges, on the calling
  * thread between sweeps.
  */
abstract class Residency {
  def holds(block: Int): Boolean

  /** Whether a step from `cur` needs a vertex read that `touch` charges.
    * Default: never.
    */
  def misses(cur: Int): Boolean = false

  /** Charge the read of vertex `cur`, which a step needed, once. */
  def touch(cur: Int): Unit = ()
}

/** The one walk-step kernel: every engine starts and advances walks through
  * it, so trajectories are engine-independent (deterministic counter RNG)
  * and execution cost, visits and traces are recorded uniformly. Walks are
  * records of a [[WalkBuffer]]; the task must fit its id and hop fields, and
  * a corpus, if given, must hold every walk. Engines return `finish()`.
  *
  * `advanceAll` sweeps a buffer on every [[Lanes]] lane. Each walk of a
  * sweep is a pure function of (task seed, walk id, hop), so which lane
  * takes it cannot change it. What lanes record is lane-local and merged in
  * lane order: step and neighbour counts and trace logs after each sweep,
  * visit counts in `finish`, and the vertices a step `misses`, which the
  * caller then `touch`es. Sums and a set union do not depend on the lane or
  * order a walk had, and a walk sits in one lane per sweep, so its logged
  * steps stay in hop order: every count, corpus and visit vector is the one
  * a single thread gives. Lane state is allocated once per run.
  */
final class Walker(val bg: BlockedGraph, val task: WalkTask, val sim: DiskSim,
                   visits: Array[Long], trace: TraceCollector) {
  import Walker._
  require(task.totalWalks <= WalkBuffer.MaxWalks,
    s"${task.totalWalks} walks exceed the ${WalkBuffer.MaxWalks} a walk record can number")
  require(task.maxLen < WalkBuffer.MaxLen,
    s"maxLen ${task.maxLen} does not fit a walk record's hop field (< ${WalkBuffer.MaxLen})")
  require(trace == null || trace.nWalks >= task.totalWalks,
    s"a corpus of ${trace.nWalks} walks cannot hold the task's ${task.totalWalks}")

  private val g = bg.g
  private val model = task.model
  private val secondOrder = model.isSecondOrder

  /** What one lane recorded since the last merge. */
  private final class Lane(var visits: Array[Long]) {
    var steps = 0L
    var neighborWork = 0L
    var log = new Array[Long](0)
    var logged = 0
    var marks: java.util.BitSet = null // vertices whose step `misses`
  }
  private val lanes = Array.tabulate(Lanes.count)(l => new Lane(if (l == 0) visits else null))

  // The open sweep. The caller writes it before `unclaimed` opens the
  // chunks; a lane reads it only after claiming one, and the caller moves on
  // only once every chunk is `completed`.
  private var sweep: WalkBuffer = _
  private var sweepMem: Residency = _
  private val unclaimed = new AtomicInteger
  private val completed = new AtomicInteger
  private val failure = new AtomicReference[Throwable]

  /** Append walk `id` at `src` to `into` and record its first vertex. */
  def start(id: Long, src: Int, into: WalkBuffer): Unit = {
    if (visits != null) visits(src) += 1
    if (trace != null) trace.start(id, src)
    into.add(id, 0, -1, src)
  }

  /** Step every record of `walks` in place while `mem` holds its current
    * vertex's block. A record is left at the step where its walk left
    * memory, or marked `ended` once the walk ended (stuck on a dangling
    * vertex, or stopped by the task). A sweep of at least `ParallelMin`
    * records runs on every lane unless another sweep holds them; a smaller
    * one runs the same chunk loop on the caller alone. An exception thrown
    * in a lane is rethrown here, after the sweep.
    */
  def advanceAll(walks: WalkBuffer, mem: Residency): Unit = {
    val chunks = (walks.length + Chunk - 1) / Chunk
    sweep = walks
    sweepMem = mem
    completed.set(0)
    unclaimed.set(chunks)
    val shared = walks.length >= ParallelMin && Lanes.acquire(this)
    runChunks(0)
    while (completed.get < chunks) Thread.onSpinWait()
    if (shared) Lanes.release()
    merge(mem)
    val e = failure.getAndSet(null)
    if (e != null) throw e
  }

  /** Advance chunks of the open sweep as lane `l` until none is left. */
  private[engine] def runChunks(l: Int): Unit = {
    var c = claim()
    while (c >= 0) {
      try advanceChunk(lanes(l), c)
      catch { case e: Throwable => failure.compareAndSet(null, e) }
      completed.incrementAndGet()
      c = claim()
    }
  }

  /** Claim an unclaimed chunk of the open sweep, or -1 if none is left. */
  private def claim(): Int = {
    var n = unclaimed.get
    while (n > 0 && !unclaimed.compareAndSet(n, n - 1)) n = unclaimed.get
    n - 1
  }

  private def advanceChunk(lane: Lane, c: Int): Unit = {
    val walks = sweep
    val mem = sweepMem
    if (visits != null && lane.visits == null) lane.visits = new Array[Long](g.nV)
    val seen = lane.visits
    var steps = 0L
    var work = 0L
    var k = c * Chunk
    val end = math.min(walks.length, k + Chunk)
    while (k < end) {
      val id = walks.id(k)
      var prev = walks.prev(k)
      var cur = walks.cur(k)
      var hop = walks.hop(k)
      var live = true
      while (live && mem.holds(bg.blockOf(cur))) {
        if (mem.misses(cur)) {
          if (lane.marks == null) lane.marks = new java.util.BitSet(g.nV)
          lane.marks.set(cur)
        }
        steps += 1
        if (secondOrder && prev >= 0) work += g.degree(cur)
        val z = model.sampleNext(g, prev, cur, task.moveDraw(id, hop))
        if (z < 0) live = false
        else {
          prev = cur
          cur = z
          hop += 1
          if (seen != null) seen(z) += 1
          if (trace != null) {
            if (lane.logged == lane.log.length) lane.log = java.util.Arrays.copyOf(lane.log, math.max(LogWords, 2 * lane.logged))
            lane.log(lane.logged) = TraceCollector.word(id, z)
            lane.logged += 1
          }
          live = !task.stopsAfter(id, hop)
        }
      }
      if (live) walks.update(k, hop, prev, cur) else walks.end(k)
      k += 1
    }
    lane.steps += steps
    lane.neighborWork += work
  }

  /** Charge and log what the lanes recorded in the last sweep, in lane order. */
  private def merge(mem: Residency): Unit = {
    var l = 0
    while (l < lanes.length) {
      val lane = lanes(l)
      sim.chargeSteps(lane.steps, lane.neighborWork)
      lane.steps = 0
      lane.neighborWork = 0
      if (trace != null) trace.appendAll(lane.log, lane.logged)
      lane.logged = 0
      if (lane.marks != null) {
        var v = lane.marks.nextSetBit(0)
        while (v >= 0) { mem.touch(v); v = lane.marks.nextSetBit(v + 1) }
        lane.marks.clear()
      }
      l += 1
    }
  }

  /** End the run: add the lanes' visits, seal the corpus and return the
    * simulated metrics.
    */
  def finish(): DiskSim.Metrics = {
    Lanes.rest()
    var l = 1
    while (l < lanes.length) {
      val seen = lanes(l).visits
      if (seen != null) {
        var v = 0
        while (v < seen.length) { visits(v) += seen(v); v += 1 }
        lanes(l).visits = null
      }
      l += 1
    }
    if (trace != null) trace.seal()
    sim.snapshot
  }
}

object Walker {
  /** Records a lane claims at a time. */
  private final val Chunk = 12

  /** The smallest sweep worth waking the other lanes for. */
  private final val ParallelMin = 48

  /** A lane's first trace log. */
  private final val LogWords = 1 << 10
}

/** Walk initialization (paper Appendix B): iterate the blocks once
  * sequentially; start each walk at its source and advance it until it
  * leaves its source block or terminates. Afterwards no live walk has its
  * previous and current vertex in the same block — the invariant both the
  * skewed storage and the asynchronous update rely on.
  */
object Init {

  /** Where a surviving walk goes: record `k` of `walks`, valid during the call. */
  trait Persist { def apply(walks: WalkBuffer, k: Int): Unit }

  /** Walks started per sweep, which bounds the start buffer on any task. */
  private final val Batch = 1 << 16

  /** Runs initialization, invoking `persist(walks, k)` for every surviving
    * walk (its current vertex is outside its source block), in walk id order.
    */
  def run(walker: Walker)(persist: Persist): Unit = {
    val bg = walker.bg
    val sim = walker.sim
    val starts = walker.task.starts
    // Walk IDs must be identical across engines: assign in (block, start)
    // order, by a stable counting sort of the starts with walks.
    val first = new Array[Int](bg.nBlocks + 1)
    var j = 0
    while (j < starts.length) {
      if (starts(j)._2 > 0) first(bg.blockOf(starts(j)._1) + 1) += 1
      j += 1
    }
    var c = 0
    while (c < bg.nBlocks) { first(c + 1) += first(c); c += 1 }
    val order = new Array[Int](first(bg.nBlocks))
    val next = java.util.Arrays.copyOf(first, bg.nBlocks)
    j = 0
    while (j < starts.length) {
      if (starts(j)._2 > 0) {
        val s = bg.blockOf(starts(j)._1)
        order(next(s)) = j
        next(s) += 1
      }
      j += 1
    }

    val fresh = new WalkBuffer
    var nextId = 0L
    for (b <- 0 until bg.nBlocks if first(b) < first(b + 1)) {
      sim.readBlock(bg.blockOffset(b), bg.blockBytes(b))
      sim.timeSlots += 1
      val source = new Residency { def holds(block: Int): Boolean = block == b }
      def sweep(): Unit = {
        walker.advanceAll(fresh, source)
        var k = 0
        while (k < fresh.length) {
          if (!fresh.ended(k)) persist(fresh, k)
          k += 1
        }
        fresh.clear()
      }
      var o = first(b)
      while (o < first(b + 1)) {
        val v = starts(order(o))._1
        val count = starts(order(o))._2
        var k = 0
        while (k < count) {
          walker.start(nextId, v, fresh)
          nextId += 1
          k += 1
          if (fresh.length == Batch) sweep()
        }
        o += 1
      }
      sweep()
    }
  }
}
