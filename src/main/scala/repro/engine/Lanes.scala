package repro.engine

import java.util.concurrent.atomic.AtomicBoolean
import java.util.concurrent.locks.LockSupport

/** The lanes `Walker.advanceAll` spreads a large sweep over (the parallel
  * walk update of §6.3): one per available processor. Lane 0 is the thread
  * that calls `advanceAll`; lanes 1.. are daemon workers, started on the
  * first shared sweep. One sweep at a time holds them; a sweep that finds
  * them held runs on its own caller.
  *
  * A worker takes chunks of the sweep it was woken for until none is left,
  * so one that wakes late just takes fewer. Between sweeps it spins for
  * `SpinNanos`, so the next sweep of a run finds it awake; after that, or
  * once a run finishes, it parks, and uses no CPU outside `WalkEngine.run`.
  */
private[engine] object Lanes {
  val count: Int = Runtime.getRuntime.availableProcessors

  private final val SpinNanos = 100000L

  private final class Worker(lane: Int) extends Thread(s"walk-lane-$lane") {
    @volatile var asleep = false
    setDaemon(true)

    override def run(): Unit = {
      var seen = 0L
      while (true) {
        val idle = System.nanoTime()
        while (posts == seen && !resting && System.nanoTime() - idle < SpinNanos) Thread.onSpinWait()
        while (posts == seen) {
          asleep = true
          if (posts == seen) LockSupport.park(this)
          asleep = false
        }
        seen = posts
        val w = job
        if (w != null) w.runChunks(lane)
      }
    }
  }

  private val held = new AtomicBoolean
  // Written only by the holder; `posts` counts the sweeps posted to workers.
  @volatile private var job: Walker = null
  @volatile private var posts = 0L
  @volatile private var resting = true

  private lazy val workers: Array[Worker] = Array.tabulate(count - 1) { l =>
    val w = new Worker(l + 1)
    w.start()
    w
  }

  /** Take the lanes for `walker`'s open sweep and wake them, unless another
    * sweep holds them.
    */
  def acquire(walker: Walker): Boolean =
    count > 1 && held.compareAndSet(false, true) && {
      job = walker
      resting = false
      posts += 1
      var l = 0
      while (l < workers.length) {
        if (workers(l).asleep) LockSupport.unpark(workers(l))
        l += 1
      }
      true
    }

  /** Give the lanes back once the sweep's chunks are all done. */
  def release(): Unit = {
    job = null
    held.set(false)
  }

  /** A run finished: workers park instead of spinning. */
  def rest(): Unit = resting = true
}
