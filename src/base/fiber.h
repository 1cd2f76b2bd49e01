// User-space execution contexts on one OS thread.
//
// A Fiber runs a body on its own stack and trades control with the context
// that resumed it: Resume() switches into the fiber and returns when the
// fiber calls Suspend() or its body returns. Only one side runs at a time and
// every switch is an explicit call, so both sides share state without locks.
// The simulator engine (src/sim) runs each rank as a fiber; the model
// checker's scheduler (src/modelcheck) runs each harness thread as one.
//
// This file and fiber.cc are the only code that calls makecontext /
// swapcontext (the lint's raw-fiber rule enforces that), so every switch gets
// the same three guarantees:
//   - Exception state is per fiber. libstdc++ keeps the stack of caught
//     exceptions per OS thread; a fiber that suspends inside a catch handler
//     must not see, or end, another fiber's exception.
//   - AddressSanitizer and ThreadSanitizer are told about each switch, so
//     they track the right stack and see the handoff as a happens-before
//     edge.
//   - Each stack is a fixed-size mmap with a PROT_NONE guard page below it,
//     so an overflow faults, as a thread's stack overflow does, instead of
//     writing into a neighbouring mapping.
//
// A fiber is destroyed either before it ever ran or after its body returned.
// An exception escaping the body terminates the program, as one escaping a
// std::thread body does.

#ifndef SRC_BASE_FIBER_H_
#define SRC_BASE_FIBER_H_

#include <ucontext.h>

#include <cstddef>
#include <functional>

namespace malt {

class Fiber {
 public:
  // Usable stack per fiber. The pages are reserved, not committed: a fiber
  // costs only the pages its body touches. The size is the default pthread
  // stack, so any body that ran on a thread fits on a fiber. A destroyed
  // fiber's stack is kept for the next fiber created on the same thread.
  static constexpr size_t kStackBytes = size_t{8} << 20;

  // Reserves the stack; the body first runs on the first Resume().
  explicit Fiber(std::function<void()> body);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Switches from the calling context into the fiber; returns when the fiber
  // calls Suspend() or its body returns. Not callable from inside this fiber
  // or after it finished.
  void Resume();

  // Called from inside the fiber's body: switches back to the context that
  // last called Resume(), and returns when the fiber is resumed again.
  void Suspend();

 private:
  // The two words of libstdc++'s per-thread __cxa_eh_globals: the stack of
  // caught exceptions and the count of uncaught ones.
  struct EhState {
    void* caught = nullptr;
    unsigned int uncaught = 0;
  };

  static EhState* CurrentEh();
  static void Entry(unsigned int hi, unsigned int lo);
  [[noreturn]] void Main() noexcept;

  std::function<void()> body_;
  void* mapping_ = nullptr;  // guard page, then the stack
  char* stack_lo_ = nullptr;
  ucontext_t ctx_{};
  ucontext_t caller_ctx_{};
  EhState fiber_eh_;   // the fiber's exception state while it is suspended
  EhState caller_eh_;  // the caller's, while the fiber runs
  bool started_ = false;
  bool running_ = false;  // inside the fiber (between Resume and Suspend)
  bool finished_ = false;

  // Sanitizer bookkeeping (unused without ASan / TSan).
  void* fiber_fake_stack_ = nullptr;
  void* caller_fake_stack_ = nullptr;
  const void* caller_stack_lo_ = nullptr;
  size_t caller_stack_bytes_ = 0;
  void* tsan_fiber_ = nullptr;
  void* tsan_caller_ = nullptr;
};

}  // namespace malt

#endif  // SRC_BASE_FIBER_H_
