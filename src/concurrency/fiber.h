#ifndef LEGO_CONCURRENCY_FIBER_H_
#define LEGO_CONCURRENCY_FIBER_H_

#include <cstddef>
#include <vector>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

namespace lego::concurrency {

/// Fiber stacks, mapped on first use and reused for every later case.
///
/// Each stack is kStackBytes (the default pthread stack size) of
/// MAP_NORESERVE anonymous memory above one PROT_NONE guard page, so an
/// overflow faults instead of running into the neighbouring mapping. Only
/// the pages a session actually touches become resident, and because the
/// mappings outlive the case, a campaign pays the mmap once per session
/// slot rather than once per test case.
class FiberStacks {
 public:
  static constexpr size_t kStackBytes = size_t{8} << 20;

  struct Stack {
    char* base = nullptr;  // lowest usable address (just above the guard)
    size_t size = 0;
  };

  FiberStacks() = default;
  ~FiberStacks();

  FiberStacks(const FiberStacks&) = delete;
  FiberStacks& operator=(const FiberStacks&) = delete;

  /// Stack number `i`, mapping it (and any below it) on first request.
  /// Aborts if the kernel refuses the mapping.
  Stack Get(size_t i);

 private:
  std::vector<char*> maps_;  // each: guard page + kStackBytes
};

/// A stackful coroutine run by a driver on the same thread.
///
/// The driver calls Resume(); the fiber runs until it calls Yield() (or its
/// entry function returns) and control comes back to the driver's Resume().
///
/// On x86-64 a switch is a few instructions in user space, with no system
/// call: it pushes the callee-saved registers (rbx, rbp, r12-r15), MXCSR and
/// the x87 control word, swaps the stack pointer, and pops the other side's.
/// So each fiber keeps its own rounding mode and exception masks. It saves
/// nothing else: not the signal mask (nothing in this project changes it,
/// so every fiber runs with the thread's) and not a CET shadow stack, so
/// fiber.cc is built with -fcf-protection=none where the compiler accepts
/// it and the binaries that link it never claim shadow-stack support.
/// Other targets switch with glibc getcontext/makecontext/swapcontext,
/// which also save and restore the signal mask, at one system call each.
///
/// Every switch carries the AddressSanitizer
/// (`__sanitizer_start/finish_switch_fiber`) and ThreadSanitizer
/// (`__tsan_switch_to_fiber`) annotations, so both sanitizers follow the
/// stack changes. Exceptions must not escape the entry function.
class Fiber {
 public:
  using Entry = void (*)(void* arg);

  Fiber() = default;
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Prepares `entry(arg)` to run on `stack` from the next Resume(). The
  /// previous run, if any, must have finished: restarting a live fiber
  /// would drop its frames without running their destructors.
  void Start(FiberStacks::Stack stack, Entry entry, void* arg);

  /// Driver side: runs the fiber until it yields or finishes.
  void Resume();

  /// Fiber side: switches back to the driver; returns at the next Resume().
  void Yield();

  bool finished() const { return finished_; }

 private:
  /// The first frame of every run: runs the entry function, then leaves
  /// for the driver for good.
  [[noreturn]] static void Trampoline(Fiber* fiber);
  /// Runs on the fiber's stack after every switch into it.
  void Landed();

#if defined(__x86_64__)
  using Context = void*;  // the parked side's stack pointer
#else
  using Context = ucontext_t;
  /// makecontext passes int arguments: the Fiber* comes in two halves.
  static void TrampolineHalves(unsigned hi, unsigned lo);
#endif
  /// Saves the running side in `save` and continues the one in `load`.
  static void Switch(Context* save, Context* load);

  Context self_{};    // the fiber while it is parked
  Context driver_{};  // the driver while the fiber runs
  FiberStacks::Stack stack_;
  Entry entry_ = nullptr;
  void* arg_ = nullptr;
  bool finished_ = true;

  // Sanitizer bookkeeping; unused in plain builds.
  void* fake_stack_ = nullptr;  // the fiber's ASan fake stack while parked
  const void* driver_bottom_ = nullptr;
  size_t driver_size_ = 0;
  void* tsan_fiber_ = nullptr;
  void* tsan_driver_ = nullptr;
};

}  // namespace lego::concurrency

#endif  // LEGO_CONCURRENCY_FIBER_H_
