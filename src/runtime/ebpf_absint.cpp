#include "runtime/ebpf_absint.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <functional>
#include <queue>
#include <set>
#include <utility>

#include "lang/ast.hpp"
#include "mptcp/packet_queue.hpp"
#include "mptcp/skb.hpp"

namespace progmp::rt::ebpf {
namespace {

// Environment model for trip-count derivation: the largest queue length and
// subflow count the WCET bound assumes. Verified programs whose loops scan
// queues get a bound proportional to the queue length; the runtime budget
// still catches the (model-exceeding) tail at execution time.
constexpr std::int64_t kModelQueueLen = 1024;
constexpr std::int64_t kModelSbfCount = mptcp::kMaxSubflows;

/// Changes at a block head before its intervals are widened to convergence.
constexpr int kWidenAfter = 8;

/// One stored state per basic block; a hostile program can make every
/// instruction a jump target, so the working set is bounded explicitly.
constexpr std::size_t kMaxBlocks = 4096;
/// Distinct intervals the stored states may name (see IntervalTable).
constexpr std::size_t kMaxIntervals = 65536;

// ---- Interval domain --------------------------------------------------------

constexpr std::int64_t kMin = INT64_MIN;
constexpr std::int64_t kMax = INT64_MAX;

/// Signed-64 interval [lo, hi]; kMin/kMax double as -inf/+inf. Transfer
/// functions that would leave the representable range return top — the VM
/// wraps on overflow, so a saturated bound would not contain the wrapped
/// value and any proof built on it would be unsound.
struct Interval {
  std::int64_t lo = kMin;
  std::int64_t hi = kMax;

  static Interval top() { return {kMin, kMax}; }
  static Interval of(std::int64_t v) { return {v, v}; }
  [[nodiscard]] bool is_top() const { return lo == kMin && hi == kMax; }
  [[nodiscard]] bool empty() const { return lo > hi; }
  [[nodiscard]] bool inside(std::int64_t a, std::int64_t b) const {
    return lo >= a && hi <= b;
  }
  bool operator==(const Interval& o) const = default;
};

using Wide = __int128;

Interval from_wide(Wide lo, Wide hi) {
  if (lo < static_cast<Wide>(kMin) || hi > static_cast<Wide>(kMax)) {
    return Interval::top();
  }
  return {static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)};
}

Interval iv_add(Interval a, Interval b) {
  return from_wide(static_cast<Wide>(a.lo) + b.lo,
                   static_cast<Wide>(a.hi) + b.hi);
}

Interval iv_sub(Interval a, Interval b) {
  return from_wide(static_cast<Wide>(a.lo) - b.hi,
                   static_cast<Wide>(a.hi) - b.lo);
}

Interval iv_mul(Interval a, Interval b) {
  const Wide c[4] = {static_cast<Wide>(a.lo) * b.lo,
                     static_cast<Wide>(a.lo) * b.hi,
                     static_cast<Wide>(a.hi) * b.lo,
                     static_cast<Wide>(a.hi) * b.hi};
  return from_wide(*std::min_element(c, c + 4), *std::max_element(c, c + 4));
}

Interval iv_neg(Interval a) {
  return from_wide(-static_cast<Wide>(a.hi), -static_cast<Wide>(a.lo));
}

/// VM semantics: x / 0 == 0, truncating division otherwise.
Interval iv_div(Interval a, Interval b) {
  if (b.lo == b.hi && b.lo != 0) {
    const std::int64_t c = b.lo;
    if (c == -1 && a.lo == kMin) return Interval::top();  // overflow case
    const std::int64_t x = a.lo / c;
    const std::int64_t y = a.hi / c;
    return {std::min(x, y), std::max(x, y)};
  }
  return Interval::top();
}

/// VM semantics: x % 0 == 0; sign of the result follows the dividend.
Interval iv_mod(Interval a, Interval b) {
  if (b.lo == b.hi && b.lo != 0 && b.lo != kMin) {
    const std::int64_t m = b.lo < 0 ? -b.lo : b.lo;
    if (a.lo >= 0) return {0, std::min(a.hi, m - 1)};
    return {-(m - 1), m - 1};
  }
  return Interval::top();
}

Interval iv_join(Interval a, Interval b) {
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval iv_meet(Interval a, Interval b) {
  return {std::max(a.lo, b.lo), std::min(a.hi, b.hi)};
}

std::int64_t sat_inc(std::int64_t v) { return v == kMax ? kMax : v + 1; }
std::int64_t sat_dec(std::int64_t v) { return v == kMin ? kMin : v - 1; }

// ---- Value domain -----------------------------------------------------------

/// Typed context of a register or stack slot.
enum class ValKind : std::uint8_t {
  kUninit,    ///< never written on any path reaching here
  kScalar,    ///< plain number
  kFramePtr,  ///< (a copy of) r10 — must never reach helpers or arithmetic
  kHandle,    ///< packet handle returned by POP/TOP-style helpers
};

struct AbsVal {
  ValKind kind = ValKind::kUninit;
  /// Joined with an uninitialized value on some path (kind is then the
  /// initialized side's kind).
  bool maybe_uninit = false;
  Interval iv{0, 0};

  static AbsVal uninit() { return {}; }
  static AbsVal scalar(Interval iv) { return {ValKind::kScalar, false, iv}; }
  static AbsVal frame_ptr() {
    return {ValKind::kFramePtr, false, Interval::top()};
  }
  static AbsVal handle() {
    return {ValKind::kHandle, false, {0, kMax}};
  }
  [[nodiscard]] bool is_uninit_path() const {
    return kind == ValKind::kUninit || maybe_uninit;
  }
  /// Provably a packet handle or NULL — what handle-typed helper arguments
  /// require.
  [[nodiscard]] bool handle_like() const {
    if (kind == ValKind::kHandle) return true;
    return kind == ValKind::kScalar && iv.inside(0, 0);
  }
  bool operator==(const AbsVal& o) const = default;
};

AbsVal join(const AbsVal& a, const AbsVal& b) {
  if (a.kind == ValKind::kUninit && b.kind == ValKind::kUninit) return a;
  if (a.kind == ValKind::kUninit) {
    AbsVal r = b;
    r.maybe_uninit = true;
    return r;
  }
  if (b.kind == ValKind::kUninit) {
    AbsVal r = a;
    r.maybe_uninit = true;
    return r;
  }
  AbsVal r;
  r.maybe_uninit = a.maybe_uninit || b.maybe_uninit;
  r.iv = iv_join(a.iv, b.iv);
  if (a.kind == b.kind) {
    r.kind = a.kind;
    return r;
  }
  // A handle merged with a provable NULL stays a handle (specs compare
  // against NULL and fall through with the 0 value).
  if ((a.kind == ValKind::kHandle && b.handle_like()) ||
      (b.kind == ValKind::kHandle && a.handle_like())) {
    r.kind = ValKind::kHandle;
    return r;
  }
  r.kind = ValKind::kScalar;
  r.iv = Interval::top();
  return r;
}

/// Widens `next` against `prev`: any bound that moved since the last visit
/// goes straight to the respective infinity, guaranteeing convergence.
void widen(AbsVal& next, const AbsVal& prev) {
  if (next.iv.lo < prev.iv.lo) next.iv.lo = kMin;
  if (next.iv.hi > prev.iv.hi) next.iv.hi = kMax;
}

// ---- Program state ----------------------------------------------------------

constexpr int kNumSlots = kStackBytes / 8;

int slot_index(std::int16_t off) { return (kStackBytes + off) / 8; }

/// Dense numbering of the stack slots the program touches. Only LDX/STX name
/// a slot, so an untouched slot is never read or written and needs no place
/// in a state.
class SlotMap {
 public:
  explicit SlotMap(const Code& code) {
    dense_.fill(-1);
    for (const Insn& insn : code) {
      if (insn.op != Op::kLdxDw && insn.op != Op::kStxDw) continue;
      std::int16_t& d = dense_[slot_index(insn.off)];
      if (d < 0) d = static_cast<std::int16_t>(count_++);
    }
  }
  [[nodiscard]] int count() const { return count_; }
  /// Dense index of the slot at frame offset `off` (touched slots only).
  [[nodiscard]] int at(std::int16_t off) const {
    return dense_[slot_index(off)];
  }
  /// Dense index of raw slot `idx` (touched slots only).
  [[nodiscard]] int of(int idx) const { return dense_[idx]; }

 private:
  std::array<std::int16_t, kNumSlots> dense_;
  int count_ = 0;
};

/// Marks a slot the current block walk has stored to (see State).
constexpr std::uint32_t kWritten = UINT32_MAX;

struct State {
  std::array<AbsVal, kNumRegs> regs;
  std::vector<AbsVal> slots;  ///< touched slots, numbered by SlotMap
  /// Per slot, the packed word it was loaded from, or kWritten once the
  /// walk stored to it: joins skip slots whose word already matches.
  std::vector<std::uint32_t> slot_words;
};

State entry_state(const SlotMap& slot_map) {
  State s;
  s.regs[kFp] = AbsVal::frame_ptr();
  // Slots start uninitialized on purpose: the VM zeroes its stack once per
  // VM, not per run, so a slot read before a write observes bytes from an
  // earlier execution — possibly of another connection sharing the program.
  s.slots.resize(static_cast<std::size_t>(slot_map.count()));
  s.slot_words.assign(s.slots.size(), kWritten);
  return s;
}

/// The distinct intervals named by one absint_check call's stored states,
/// interned in an open-addressing hash. The built-ins need 25–35 each and
/// no program of the verifier fuzz sweep more than 67; the cap keeps a
/// hostile program from growing the table without bound.
class IntervalTable {
 public:
  /// Index of `iv`, added if new; kFull once kMaxIntervals are stored.
  std::uint32_t intern(Interval iv) {
    if (2 * (ivs_.size() + 1) > buckets_.size()) grow();
    const std::size_t mask = buckets_.size() - 1;
    for (std::size_t b = hash(iv) & mask;; b = (b + 1) & mask) {
      const std::uint32_t at = buckets_[b];
      if (at == 0) {
        if (ivs_.size() == kMaxIntervals) return kFull;
        ivs_.push_back(iv);
        buckets_[b] = static_cast<std::uint32_t>(ivs_.size());
        return buckets_[b] - 1;
      }
      if (ivs_[at - 1] == iv) return at - 1;
    }
  }
  [[nodiscard]] const Interval& operator[](std::uint32_t i) const {
    return ivs_[i];
  }

  static constexpr std::uint32_t kFull = UINT32_MAX;

 private:
  static std::size_t hash(Interval iv) {
    std::uint64_t h = static_cast<std::uint64_t>(iv.lo) * 0x9e3779b97f4a7c15ULL;
    h ^= static_cast<std::uint64_t>(iv.hi) * 0xc2b2ae3d27d4eb4fULL;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }
  void grow() {
    std::vector<std::uint32_t> old = std::move(buckets_);
    buckets_.assign(std::max<std::size_t>(64, 2 * old.size()), 0);
    const std::size_t mask = buckets_.size() - 1;
    for (const std::uint32_t at : old) {
      if (at == 0) continue;
      std::size_t b = hash(ivs_[at - 1]) & mask;
      while (buckets_[b] != 0) b = (b + 1) & mask;
      buckets_[b] = at;
    }
  }

  std::vector<Interval> ivs_;
  std::vector<std::uint32_t> buckets_;  ///< interval index + 1; 0 = empty
};

/// Block-head states, packed into one flat arena: one 32-bit word per
/// register and touched slot — kind (2 bits), maybe-uninit (1 bit) and an
/// IntervalTable index. A block walk unpacks its head state into a scratch
/// State; joins work on the packed words in place.
class StateStore {
 public:
  StateStore(std::size_t n, std::size_t blocks, const SlotMap& slot_map)
      : base_(n, kNone) {
    arena_.reserve(blocks *
                   (kNumRegs + static_cast<std::size_t>(slot_map.count())));
  }

  [[nodiscard]] bool has(std::size_t pc) const { return base_[pc] != kNone; }
  /// True once a state needed more than kMaxIntervals distinct intervals;
  /// the stored states are then unusable.
  [[nodiscard]] bool full() const { return full_; }

  void load(std::size_t pc, State& out) const {
    const std::uint32_t* w = &arena_[base_[pc]];
    for (int r = 0; r < kNumRegs; ++r) out.regs[r] = unpack(w[r]);
    for (std::size_t i = 0; i < out.slots.size(); ++i) {
      out.slot_words[i] = w[kNumRegs + i];
      out.slots[i] = unpack(out.slot_words[i]);
    }
  }

  /// Stores `s` as the first state to reach `pc`.
  void init(std::size_t pc, const State& s) {
    base_[pc] = static_cast<std::uint32_t>(arena_.size());
    for (const AbsVal& v : s.regs) arena_.push_back(pack(v));
    for (std::size_t i = 0; i < s.slots.size(); ++i) {
      arena_.push_back(s.slot_words[i] != kWritten ? s.slot_words[i]
                                                   : pack(s.slots[i]));
    }
  }

  /// Joins `s` into the state stored at `pc`; true if it changed. With
  /// `widening`, every bound that moves goes straight to its infinity.
  bool join_into(std::size_t pc, const State& s, bool widening) {
    std::uint32_t* w = &arena_[base_[pc]];
    bool changed = false;
    auto one = [&](std::uint32_t& word, const AbsVal& in) {
      const AbsVal old = unpack(word);
      AbsVal merged = join(old, in);
      if (merged == old) return;
      if (widening) widen(merged, old);
      word = pack(merged);
      changed = true;
    };
    for (int r = 0; r < kNumRegs; ++r) one(w[r], s.regs[r]);
    for (std::size_t i = 0; i < s.slots.size(); ++i) {
      // Equal words hold equal values, and a join with itself is a no-op.
      if (s.slot_words[i] != w[kNumRegs + i]) {
        one(w[kNumRegs + i], s.slots[i]);
      }
    }
    return changed;
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  std::uint32_t pack(const AbsVal& v) {
    std::uint32_t iv = table_.intern(v.iv);
    if (iv == IntervalTable::kFull) {
      full_ = true;  // the caller abandons the fixpoint
      iv = 0;
    }
    return static_cast<std::uint32_t>(v.kind) |
           (v.maybe_uninit ? 4u : 0u) | (iv << 3);
  }
  [[nodiscard]] AbsVal unpack(std::uint32_t w) const {
    return {static_cast<ValKind>(w & 3u), (w & 4u) != 0, table_[w >> 3]};
  }

  IntervalTable table_;
  std::vector<std::uint32_t> arena_;
  std::vector<std::uint32_t> base_;  ///< pc -> arena offset, kNone if unset
  bool full_ = false;
};

// ---- Branch refinement ------------------------------------------------------

enum class Rel { kEq, kNe, kGt, kGe, kLt, kLe };

Rel negate(Rel r) {
  switch (r) {
    case Rel::kEq: return Rel::kNe;
    case Rel::kNe: return Rel::kEq;
    case Rel::kGt: return Rel::kLe;
    case Rel::kGe: return Rel::kLt;
    case Rel::kLt: return Rel::kGe;
    case Rel::kLe: return Rel::kGt;
  }
  return Rel::kEq;
}

Rel taken_rel(Op op) {
  switch (op) {
    case Op::kJeqReg: case Op::kJeqImm: return Rel::kEq;
    case Op::kJneReg: case Op::kJneImm: return Rel::kNe;
    case Op::kJsgtReg: case Op::kJsgtImm: return Rel::kGt;
    case Op::kJsgeReg: case Op::kJsgeImm: return Rel::kGe;
    case Op::kJsltReg: case Op::kJsltImm: return Rel::kLt;
    case Op::kJsleReg: case Op::kJsleImm: return Rel::kLe;
    default: return Rel::kEq;  // unreachable (kJa handled by caller)
  }
}

/// Refines L and R under "L rel R"; returns false when the relation is
/// infeasible for the given intervals (edge not propagated).
bool refine(Interval& l, Interval& r, Rel rel) {
  switch (rel) {
    case Rel::kEq: {
      const Interval m = iv_meet(l, r);
      l = r = m;
      break;
    }
    case Rel::kNe:
      if (r.lo == r.hi) {
        if (l.lo == r.lo && l.hi == r.lo) return false;
        if (l.lo == r.lo) l.lo = sat_inc(l.lo);
        else if (l.hi == r.lo) l.hi = sat_dec(l.hi);
      }
      if (l.lo == l.hi) {
        if (r.lo == l.lo) r.lo = sat_inc(r.lo);
        else if (r.hi == l.lo) r.hi = sat_dec(r.hi);
      }
      break;
    case Rel::kGt:
      l.lo = std::max(l.lo, sat_inc(r.lo));
      r.hi = std::min(r.hi, sat_dec(l.hi));
      break;
    case Rel::kGe:
      l.lo = std::max(l.lo, r.lo);
      r.hi = std::min(r.hi, l.hi);
      break;
    case Rel::kLt:
      l.hi = std::min(l.hi, sat_dec(r.hi));
      r.lo = std::max(r.lo, sat_inc(l.lo));
      break;
    case Rel::kLe:
      l.hi = std::min(l.hi, r.hi);
      r.lo = std::max(r.lo, l.lo);
      break;
  }
  return !l.empty() && !r.empty();
}

/// Binary ALU ops and conditional jumps whose second operand is the src
/// register rather than the immediate.
bool is_reg_form(Op op) {
  switch (op) {
    case Op::kAddReg: case Op::kSubReg: case Op::kMulReg: case Op::kDivReg:
    case Op::kModReg: case Op::kJeqReg: case Op::kJneReg: case Op::kJsgtReg:
    case Op::kJsgeReg: case Op::kJsltReg: case Op::kJsleReg:
      return true;
    default:
      return false;
  }
}

/// Applies the branch condition of `insn` to `st` (taken or fall-through
/// side). Returns false when the edge is infeasible.
bool refine_edge(State& st, const Insn& insn, bool taken) {
  const Rel rel = taken ? taken_rel(insn.op) : negate(taken_rel(insn.op));
  AbsVal& dst = st.regs[insn.dst];
  const bool reg_form = is_reg_form(insn.op);
  Interval rhs = reg_form ? st.regs[insn.src].iv : Interval::of(insn.imm);
  Interval lhs = dst.iv;
  if (!refine(lhs, rhs, rel)) return false;
  // Interval knowledge applies to any initialized kind (comparing a handle
  // against NULL narrows it too); the kinds themselves never change here.
  if (dst.kind != ValKind::kUninit) dst.iv = lhs;
  if (reg_form && st.regs[insn.src].kind != ValKind::kUninit) {
    st.regs[insn.src].iv = rhs;
  }
  return true;
}

// ---- Transfer ---------------------------------------------------------------

struct DiagSinkFn {
  virtual ~DiagSinkFn() = default;
  /// `with_path`: the finding gets an entry-to-`pc` path once the reporting
  /// walk has established reachability.
  virtual void emit(std::size_t pc, std::string message,
                    bool with_path = false) = 0;
};

bool is_alu(Op op) {
  switch (op) {
    case Op::kAddReg: case Op::kAddImm: case Op::kSubReg: case Op::kSubImm:
    case Op::kMulReg: case Op::kMulImm: case Op::kDivReg: case Op::kDivImm:
    case Op::kModReg: case Op::kModImm: case Op::kNeg:
      return true;
    default:
      return false;
  }
}

/// Flags every register `insn` reads that may be uninitialized on some
/// feasible path to `pc` (only during the final reporting walk). CALL
/// arguments are checked per helper by check_call; the LDX/STX base is r10,
/// which is never written.
void check_reads(std::size_t pc, const Insn& insn, const State& st,
                 DiagSinkFn& sink) {
  std::uint32_t reads = 0;
  switch (insn.op) {
    case Op::kMovImm: case Op::kJa: case Op::kCall: case Op::kLdxDw:
      break;
    case Op::kMovReg: case Op::kStxDw:
      reads = 1u << insn.src;
      break;
    case Op::kExit:
      reads = 1u;  // r0, the return value
      break;
    default:  // ALU ops and conditional jumps
      reads = 1u << insn.dst;
      if (is_reg_form(insn.op)) reads |= 1u << insn.src;
      break;
  }
  for (int r = 0; r < kNumRegs; ++r) {
    if ((reads & (1u << r)) != 0 && st.regs[r].is_uninit_path()) {
      sink.emit(pc,
                "register r" + std::to_string(r) +
                    " may be read before initialization",
                /*with_path=*/true);
    }
  }
}

/// Per-helper argument contract check (only during the final reporting
/// walk). Register-index and prop-selector ranges are hygiene against the
/// null-safe runtime; the queue-id range is the real memory-safety proof —
/// QueueBundle::get has no mapping outside [0, kRq].
void check_call(std::size_t pc, const Insn& insn, const State& st,
                DiagSinkFn& sink) {
  const auto helper = static_cast<Helper>(insn.imm);
  constexpr std::int64_t kQueueIdMax =
      static_cast<std::int64_t>(mptcp::QueueId::kRq);

  auto arg = [&](int r) -> const AbsVal& { return st.regs[r]; };
  auto name = [](int r) {
    return std::string("r") + std::to_string(r);
  };
  auto need_init = [&](int r) {
    if (arg(r).is_uninit_path()) {
      sink.emit(pc, "helper argument " + name(r) +
                        " may be uninitialized (clobbered by an earlier "
                        "call?)");
      return false;
    }
    if (arg(r).kind == ValKind::kFramePtr) {
      sink.emit(pc, "frame pointer passed to helper in " + name(r));
      return false;
    }
    return true;
  };
  auto need_range = [&](int r, std::int64_t lo, std::int64_t hi,
                        const char* what) {
    if (!need_init(r)) return;
    if (!arg(r).iv.inside(lo, hi)) {
      sink.emit(pc, std::string(what) + " argument " + name(r) + " in [" +
                        std::to_string(arg(r).iv.lo) + ", " +
                        std::to_string(arg(r).iv.hi) +
                        "] not provably inside [" + std::to_string(lo) +
                        ", " + std::to_string(hi) + "]");
    }
  };
  auto need_handle = [&](int r) {
    if (!need_init(r)) return;
    if (!arg(r).handle_like()) {
      sink.emit(pc, "helper expects a packet handle (or provable NULL) in " +
                        name(r));
    }
  };
  auto need_scalar = [&](int r) { need_init(r); };

  switch (helper) {
    case Helper::kSbfCount:
    case Helper::kTimeMs:
      break;
    case Helper::kSbfProp:
      need_scalar(1);
      need_range(2, 0, lang::kNumSbfProps - 1, "subflow property");
      break;
    case Helper::kPktProp:
      need_handle(1);
      need_range(2, 0, lang::kNumPktProps - 1, "packet property");
      need_scalar(3);
      break;
    case Helper::kQueueLen:
    case Helper::kPop:
      need_range(1, 0, kQueueIdMax, "queue id");
      break;
    case Helper::kQueueNth:
      need_range(1, 0, kQueueIdMax, "queue id");
      need_scalar(2);
      break;
    case Helper::kPush:
      need_scalar(1);
      need_handle(2);
      break;
    case Helper::kDrop:
      need_handle(1);
      break;
    case Helper::kHasWindow:
      need_scalar(1);
      need_handle(2);
      break;
    case Helper::kRegGet:
      need_range(1, 0, 98, "register index");
      break;
    case Helper::kRegSet:
      need_range(1, 0, 98, "register index");
      need_scalar(2);
      break;
    case Helper::kPrint:
      need_scalar(1);
      break;
  }
}

/// Helper return-value model.
AbsVal call_result(Helper helper) {
  switch (helper) {
    case Helper::kSbfCount:
      return AbsVal::scalar({0, kModelSbfCount});
    case Helper::kQueueLen:
      return AbsVal::scalar({0, kModelQueueLen});
    case Helper::kQueueNth:
    case Helper::kPop:
      return AbsVal::handle();
    case Helper::kHasWindow:
      return AbsVal::scalar({0, 1});
    case Helper::kTimeMs:
      return AbsVal::scalar({0, kMax});
    case Helper::kPush:
    case Helper::kDrop:
    case Helper::kRegSet:
    case Helper::kPrint:
      return AbsVal::scalar({0, 0});
    case Helper::kSbfProp:
    case Helper::kPktProp:
    case Helper::kRegGet:
      return AbsVal::scalar(Interval::top());
  }
  return AbsVal::scalar(Interval::top());
}

/// Applies one non-jump instruction to `st`. `sink` is null during the
/// fixpoint and set during the final reporting walk.
void transfer(State& st, std::size_t pc, const Insn& insn,
              const SlotMap& slot_map, DiagSinkFn* sink) {
  auto fp_arith = [&](int r) {
    if (sink != nullptr && st.regs[r].kind == ValKind::kFramePtr) {
      sink->emit(pc, "frame pointer used in arithmetic (r" +
                         std::to_string(r) + ")");
    }
  };
  AbsVal& dst = st.regs[insn.dst];
  const AbsVal& src = st.regs[insn.src];
  const bool reg_form = is_reg_form(insn.op);
  const Interval rhs = reg_form ? src.iv : Interval::of(insn.imm);

  switch (insn.op) {
    case Op::kAddReg: case Op::kAddImm:
      fp_arith(insn.dst);
      if (reg_form) fp_arith(insn.src);
      dst = AbsVal::scalar(iv_add(dst.iv, rhs));
      break;
    case Op::kSubReg: case Op::kSubImm:
      fp_arith(insn.dst);
      if (reg_form) fp_arith(insn.src);
      dst = AbsVal::scalar(iv_sub(dst.iv, rhs));
      break;
    case Op::kMulReg: case Op::kMulImm:
      fp_arith(insn.dst);
      if (reg_form) fp_arith(insn.src);
      dst = AbsVal::scalar(iv_mul(dst.iv, rhs));
      break;
    case Op::kDivReg: case Op::kDivImm:
      fp_arith(insn.dst);
      if (reg_form) fp_arith(insn.src);
      dst = AbsVal::scalar(iv_div(dst.iv, rhs));
      break;
    case Op::kModReg: case Op::kModImm:
      fp_arith(insn.dst);
      if (reg_form) fp_arith(insn.src);
      dst = AbsVal::scalar(iv_mod(dst.iv, rhs));
      break;
    case Op::kNeg:
      fp_arith(insn.dst);
      dst = AbsVal::scalar(iv_neg(dst.iv));
      break;
    case Op::kMovReg:
      dst = src;
      break;
    case Op::kMovImm:
      dst = AbsVal::scalar(Interval::of(insn.imm));
      break;
    case Op::kCall: {
      if (sink != nullptr) check_call(pc, insn, st, *sink);
      st.regs[0] = call_result(static_cast<Helper>(insn.imm));
      // r1-r5 are poisoned by the VM; model them as uninitialized so a
      // later helper call reusing them without a fresh MOV is flagged.
      for (int r = 1; r <= 5; ++r) st.regs[r] = AbsVal::uninit();
      break;
    }
    case Op::kLdxDw: {
      const AbsVal& slot = st.slots[slot_map.at(insn.off)];
      if (sink != nullptr && slot.is_uninit_path()) {
        sink->emit(pc,
                   "stack slot [r10" + std::to_string(insn.off) +
                       "] may be read before initialization (stale bytes "
                       "from an earlier execution)",
                   /*with_path=*/true);
      }
      dst = slot;
      if (dst.kind == ValKind::kUninit) dst = AbsVal::scalar(Interval::top());
      dst.maybe_uninit = false;  // reported above; don't cascade
      break;
    }
    case Op::kStxDw:
      st.slots[slot_map.at(insn.off)] = src;
      break;
    case Op::kExit:
      if (sink != nullptr && st.regs[0].kind == ValKind::kFramePtr) {
        sink->emit(pc, "frame pointer returned in r0");
      }
      break;
    default:
      break;  // jumps handled by the driver
  }
}

// ---- Loop-bound derivation --------------------------------------------------

/// A storage location a loop counter can live in.
struct Place {
  bool is_slot = false;
  int idx = -1;  ///< slot index or register number
  bool operator==(const Place& o) const = default;
  [[nodiscard]] bool valid() const { return idx >= 0; }
};

/// Symbolic value relative to the start of a straight-line block:
/// unknown, a constant, or "value of place P at block start, plus c".
struct Sym {
  enum class K : std::uint8_t { kUnknown, kConst, kPlace } k = K::kUnknown;
  Place place;
  std::int64_t c = 0;

  static Sym unknown() { return {}; }
  static Sym constant(std::int64_t v) { return {K::kConst, {}, v}; }
  static Sym of_place(Place p) { return {K::kPlace, p, 0}; }
};

/// Symbolic evaluation of the straight-line range [from, to) — registers
/// and stack slots as functions of their values at `from`. Conservative:
/// anything not recognized becomes unknown.
struct BlockEval {
  std::array<Sym, kNumRegs> regs;
  /// Lazily-populated current slot values (index -> Sym); absent means
  /// "value of the slot at block start".
  std::array<Sym, kNumSlots> slots;
  std::array<bool, kNumSlots> slot_set{};

  BlockEval() {
    for (int r = 0; r < kNumRegs; ++r) {
      regs[r] = Sym::of_place({false, r});
    }
  }

  Sym slot_value(int idx) {
    if (!slot_set[idx]) return Sym::of_place({true, idx});
    return slots[idx];
  }

  void add_const(int dst, Wide delta) {
    Sym& s = regs[dst];
    if (s.k == Sym::K::kConst || s.k == Sym::K::kPlace) {
      // Saturation would mis-model wraparound; bail out instead.
      const Wide sum = static_cast<Wide>(s.c) + delta;
      if (sum >= static_cast<Wide>(kMin) && sum <= static_cast<Wide>(kMax)) {
        s.c = static_cast<std::int64_t>(sum);
        return;
      }
    }
    s = Sym::unknown();
  }

  void run(const Code& code, std::size_t from, std::size_t to) {
    for (std::size_t pc = from; pc < to; ++pc) {
      const Insn& insn = code[pc];
      switch (insn.op) {
        case Op::kMovImm:
          regs[insn.dst] = Sym::constant(insn.imm);
          break;
        case Op::kMovReg:
          regs[insn.dst] = regs[insn.src];
          break;
        case Op::kAddImm:
          add_const(insn.dst, insn.imm);
          break;
        case Op::kSubImm:
          add_const(insn.dst, -static_cast<Wide>(insn.imm));
          break;
        // Register forms count as add-constant when the operand is a known
        // constant (unoptimized codegen materializes step constants into a
        // register first).
        case Op::kAddReg:
          if (regs[insn.src].k == Sym::K::kConst) {
            add_const(insn.dst, regs[insn.src].c);
          } else {
            regs[insn.dst] = Sym::unknown();
          }
          break;
        case Op::kSubReg:
          if (regs[insn.src].k == Sym::K::kConst) {
            add_const(insn.dst, -static_cast<Wide>(regs[insn.src].c));
          } else {
            regs[insn.dst] = Sym::unknown();
          }
          break;
        case Op::kLdxDw:
          regs[insn.dst] = slot_value(slot_index(insn.off));
          break;
        case Op::kStxDw: {
          const int idx = slot_index(insn.off);
          slots[idx] = regs[insn.src];
          slot_set[idx] = true;
          break;
        }
        case Op::kCall:
          for (int r = 0; r <= 5; ++r) regs[r] = Sym::unknown();
          break;
        default:
          if (is_alu(insn.op)) regs[insn.dst] = Sym::unknown();
          break;  // jumps/exit terminate blocks; caller bounds the range
      }
    }
  }
};

struct Loop {
  std::size_t head = 0;
  std::size_t end = 0;  ///< largest reachable back-edge source
  std::vector<std::size_t> back_edges;
  std::int64_t trips = 0;  ///< bound on body executions (+1 covers guards)

  // Shape, derived from the code alone (steps 1-3 of bounding).
  std::string why;  ///< non-empty: the loop cannot be bounded, and why
  Place counter;
  std::int64_t step = 0;
  Rel exit_rel = Rel::kEq;  ///< exit condition, counter on the left
  Place limit_place;        ///< set when the limit is an invariant place
  std::int64_t limit_const = 0;  ///< the limit otherwise

  // Counter and limit joined over the loop's entry edges (step 4).
  bool entry_seen = false;
  AbsVal entry_counter;
  AbsVal entry_limit;
};

constexpr std::int64_t kWcetCap = 1'000'000'000'000'000;  // 1e15, saturating

}  // namespace

AbsintResult absint_check(const Code& code, const AbsintOptions& options) {
  AbsintResult result;
  const std::size_t n = code.size();
  if (n == 0) {
    result.diags.push_back({0, "empty program", {}});
    return result;
  }

  // ---- CFG leaders -----------------------------------------------------------
  std::vector<bool> is_leader(n, false);
  is_leader[0] = true;
  for (std::size_t pc = 0; pc < n; ++pc) {
    const Insn& insn = code[pc];
    if (!is_jump(insn.op)) continue;
    const auto target =
        static_cast<std::size_t>(static_cast<std::int64_t>(pc) + 1 + insn.off);
    is_leader[target] = true;
    if (insn.op != Op::kJa && pc + 1 < n) is_leader[pc + 1] = true;
  }
  std::size_t leader_count = 0;
  for (std::size_t pc = 0; pc < n; ++pc) leader_count += is_leader[pc];
  if (leader_count > kMaxBlocks) {
    result.diags.push_back(
        {0, "program too complex to verify (too many basic blocks)", {}});
    return result;
  }

  // ---- Fixpoint --------------------------------------------------------------
  const SlotMap slot_map(code);
  StateStore states(n, leader_count, slot_map);
  std::vector<int> changes_at(n, 0);
  std::vector<bool> queued(n, false);
  // Lowest pending pc first: code is laid out in program order, so a block's
  // forward predecessors settle before it is walked and a loop converges
  // before the code after it runs.
  std::priority_queue<std::size_t, std::vector<std::size_t>, std::greater<>>
      work;

  auto propagate = [&](std::size_t, std::size_t succ, const State& s) {
    if (!states.has(succ)) {
      states.init(succ, s);
    } else {
      if (!states.join_into(succ, s, changes_at[succ] >= kWidenAfter)) {
        return;
      }
      ++changes_at[succ];
    }
    if (!queued[succ]) {
      queued[succ] = true;
      work.push(succ);
    }
  };

  // Walks one basic block from `head`, starting from its stored state. With
  // `sink` set this is the final reporting walk: diagnostics are emitted and
  // walked pcs marked reachable. `on_edge(from_pc, succ_pc, state)` receives
  // every feasible outgoing edge with its branch-refined state — the fixpoint
  // passes `propagate`, the loop-bound pass a collector for loop-entry states.
  State cur = entry_state(slot_map);
  std::vector<bool> reachable(n, false);
  auto walk_block = [&](std::size_t head, DiagSinkFn* sink, auto&& on_edge) {
    states.load(head, cur);
    std::size_t pc = head;
    for (;;) {
      const Insn& insn = code[pc];
      if (sink != nullptr) {
        reachable[pc] = true;
        check_reads(pc, insn, cur, *sink);
      }
      if (insn.op == Op::kExit) {
        transfer(cur, pc, insn, slot_map, sink);
        return;
      }
      if (is_jump(insn.op)) {
        const auto target = static_cast<std::size_t>(
            static_cast<std::int64_t>(pc) + 1 + insn.off);
        if (insn.op == Op::kJa) {
          on_edge(pc, target, cur);
          return;
        }
        // Refine in place for the taken edge, restore the operands, then
        // refine for the fall-through edge.
        const AbsVal dst = cur.regs[insn.dst];
        const AbsVal src = cur.regs[insn.src];
        if (refine_edge(cur, insn, true)) on_edge(pc, target, cur);
        cur.regs[insn.dst] = dst;
        cur.regs[insn.src] = src;
        if (refine_edge(cur, insn, false)) on_edge(pc, pc + 1, cur);
        return;
      }
      transfer(cur, pc, insn, slot_map, sink);
      if (insn.op == Op::kStxDw) {
        cur.slot_words[slot_map.at(insn.off)] = kWritten;
      }
      ++pc;
      if (pc >= n) return;  // structurally impossible (last insn EXIT/JA)
      if (is_leader[pc]) {
        on_edge(pc - 1, pc, cur);
        return;
      }
    }
  };

  states.init(0, cur);
  queued[0] = true;
  work.push(0);
  std::size_t steps = 0;
  const std::size_t max_steps = 64 * std::max<std::size_t>(leader_count, 1) +
                                8 * kWidenAfter * leader_count;
  while (!work.empty()) {
    if (++steps > max_steps) {
      result.diags.push_back(
          {0, "abstract interpretation did not converge", {}});
      return result;
    }
    const std::size_t head = work.top();
    work.pop();
    queued[head] = false;
    walk_block(head, nullptr, propagate);
    if (states.full()) {
      result.diags.push_back(
          {0, "program too complex to verify (too many distinct intervals)",
           {}});
      return result;
    }
  }

  // ---- Final reporting walk --------------------------------------------------
  std::set<std::pair<std::size_t, std::string>> seen;
  struct CollectSink final : DiagSinkFn {
    std::set<std::pair<std::size_t, std::string>>* seen;
    std::vector<AbsintDiag>* out;
    std::vector<std::size_t> needs_path;  ///< indices into *out
    void emit(std::size_t pc, std::string message,
              bool with_path = false) override {
      if (!seen->insert({pc, message}).second) return;
      if (with_path) needs_path.push_back(out->size());
      out->push_back({pc, std::move(message), {}});
    }
  };
  CollectSink sink;
  sink.seen = &seen;
  sink.out = &result.diags;
  const auto no_edge = [](std::size_t, std::size_t, const State&) {};
  for (std::size_t pc = 0; pc < n; ++pc) {
    if (is_leader[pc] && states.has(pc)) walk_block(pc, &sink, no_edge);
  }

  // ---- Counterexample paths (BFS parents over the reachable CFG) ------------
  std::vector<std::int64_t> parent(n, -1);
  {
    std::deque<std::size_t> q{0};
    std::vector<bool> visited(n, false);
    visited[0] = true;
    while (!q.empty()) {
      const std::size_t pc = q.front();
      q.pop_front();
      const Insn& insn = code[pc];
      auto visit = [&](std::size_t succ) {
        if (succ >= n || visited[succ] || !reachable[succ]) return;
        visited[succ] = true;
        parent[succ] = static_cast<std::int64_t>(pc);
        q.push_back(succ);
      };
      if (insn.op == Op::kExit) continue;
      if (is_jump(insn.op)) {
        visit(static_cast<std::size_t>(static_cast<std::int64_t>(pc) + 1 +
                                       insn.off));
        if (insn.op != Op::kJa) visit(pc + 1);
      } else {
        visit(pc + 1);
      }
    }
  }
  auto path_to = [&](std::size_t pc) {
    std::vector<std::size_t> path;
    std::int64_t at = static_cast<std::int64_t>(pc);
    while (at >= 0 && path.size() <= n) {
      path.push_back(static_cast<std::size_t>(at));
      at = parent[static_cast<std::size_t>(at)];
    }
    std::reverse(path.begin(), path.end());
    return path;
  };
  for (const std::size_t i : sink.needs_path) {
    result.diags[i].path = path_to(result.diags[i].pc);
  }

  // ---- Loops: reachable back edges, nesting, trip bounds ---------------------
  std::vector<Loop> loops;
  for (std::size_t pc = 0; pc < n; ++pc) {
    if (!reachable[pc] || !is_jump(code[pc].op)) continue;
    const auto target = static_cast<std::size_t>(
        static_cast<std::int64_t>(pc) + 1 + code[pc].off);
    if (target > pc) continue;
    auto it = std::find_if(loops.begin(), loops.end(),
                           [&](const Loop& l) { return l.head == target; });
    if (it == loops.end()) {
      Loop loop;
      loop.head = target;
      loop.end = pc;
      loop.back_edges = {pc};
      loops.push_back(std::move(loop));
    } else {
      it->end = std::max(it->end, pc);
      it->back_edges.push_back(pc);
    }
  }
  std::sort(loops.begin(), loops.end(),
            [](const Loop& a, const Loop& b) { return a.head < b.head; });
  for (std::size_t i = 0; i + 1 < loops.size(); ++i) {
    for (std::size_t j = i + 1; j < loops.size(); ++j) {
      const Loop& a = loops[i];
      const Loop& b = loops[j];
      if (b.head <= a.end && b.end > a.end) {
        sink.emit(b.head,
                  "overlapping loop ranges (irreducible control flow)");
      }
    }
  }

  /// Start of the single-entry straight-line suffix ending at `pc`: after
  /// the previous jump and at or after the last leader — every path to `pc`
  /// executes all of [start, pc].
  auto suffix_start = [&](std::size_t pc) {
    std::size_t start = 0;
    for (std::size_t p = pc; p-- > 0;) {
      if (is_jump(code[p].op) || code[p].op == Op::kExit) {
        start = p + 1;
        break;
      }
      if (is_leader[p]) {
        start = p;
        break;
      }
    }
    return start;
  };

  auto writes_place = [&](const Insn& insn, const Place& p) {
    if (p.is_slot) {
      return insn.op == Op::kStxDw && slot_index(insn.off) == p.idx;
    }
    switch (insn.op) {
      case Op::kMovReg: case Op::kMovImm: case Op::kLdxDw:
        return insn.dst == p.idx;
      case Op::kCall:
        return p.idx <= 5;
      case Op::kJa: case Op::kJeqReg: case Op::kJeqImm: case Op::kJneReg:
      case Op::kJneImm: case Op::kJsgtReg: case Op::kJsgtImm:
      case Op::kJsgeReg: case Op::kJsgeImm: case Op::kJsltReg:
      case Op::kJsltImm: case Op::kJsleReg: case Op::kJsleImm:
      case Op::kExit: case Op::kStxDw:
        return false;
      default:
        return is_alu(insn.op) && insn.dst == p.idx;
    }
  };

  // Steps 1-3 of bounding one loop, from the code alone: the guard, the
  // counter and its step, and the limit. Returns why the loop cannot be
  // bounded, or an empty string with the shape stored in `loop`.
  auto shape_loop = [&](Loop& loop) -> std::string {
    // 1. Guard: the first jump reached from the loop head must be a
    // conditional branch with exactly one successor leaving the loop.
    std::size_t guard = loop.head;
    while (guard < n && !is_jump(code[guard].op) &&
           code[guard].op != Op::kExit) {
      ++guard;
    }
    if (guard >= n || !is_jump(code[guard].op) || code[guard].op == Op::kJa) {
      return "no conditional exit guard at the loop head";
    }
    const auto target = static_cast<std::size_t>(
        static_cast<std::int64_t>(guard) + 1 + code[guard].off);
    const auto inside = [&](std::size_t pc) {
      return pc >= loop.head && pc <= loop.end;
    };
    const bool taken_exits = !inside(target);
    const bool fall_exits = !inside(guard + 1);
    if (taken_exits == fall_exits) {
      return "loop-head guard does not leave the loop";
    }

    // Symbolic operands of the guard, relative to the loop head.
    BlockEval guard_eval;
    guard_eval.run(code, loop.head, guard);
    const Insn& g = code[guard];
    const Sym lhs = guard_eval.regs[g.dst];
    const Sym rhs =
        is_reg_form(g.op) ? guard_eval.regs[g.src] : Sym::constant(g.imm);

    Rel exit_rel = taken_exits ? taken_rel(g.op) : negate(taken_rel(g.op));
    // Normalize to counter-on-the-left.
    auto mirrored = [](Rel r) {
      switch (r) {
        case Rel::kGt: return Rel::kLt;
        case Rel::kGe: return Rel::kLe;
        case Rel::kLt: return Rel::kGt;
        case Rel::kLe: return Rel::kGe;
        default: return r;
      }
    };

    // 2. Increment: every back-edge suffix must advance one common counter
    // place by a constant step, and nothing else inside the loop may write
    // it.
    Place counter;
    std::int64_t step = 0;
    for (const std::size_t src : loop.back_edges) {
      const std::size_t start = suffix_start(src);
      if (start < loop.head) {
        return "back-edge block extends outside the loop";
      }
      BlockEval be;
      be.run(code, start, src);
      Place found;
      std::int64_t found_step = 0;
      // Candidate counters: the guard operands that are plain places.
      for (const Sym* cand : {&lhs, &rhs}) {
        if (cand->k != Sym::K::kPlace || cand->c != 0) continue;
        const Place p = cand->place;
        const Sym fin = p.is_slot ? be.slot_value(p.idx) : be.regs[p.idx];
        if (fin.k == Sym::K::kPlace && fin.place == p && fin.c != 0) {
          found = p;
          found_step = fin.c;
          break;
        }
      }
      if (!found.valid()) {
        return "no provably monotone loop counter in the back-edge block";
      }
      if (counter.valid() && !(counter == found && step == found_step)) {
        return "back edges advance different counters";
      }
      counter = found;
      step = found_step;
      // The increment itself must be inside the single-entry suffix; any
      // other write to the counter in the loop could reset it.
      for (std::size_t pc = loop.head; pc <= loop.end; ++pc) {
        if (!reachable[pc] || (pc >= start && pc <= src)) continue;
        if (writes_place(code[pc], counter)) {
          return "loop counter is also written at insn " + std::to_string(pc);
        }
      }
    }

    // Which guard side is the counter?
    const bool counter_is_lhs =
        lhs.k == Sym::K::kPlace && lhs.c == 0 && lhs.place == counter;
    const Sym& limit = counter_is_lhs ? rhs : lhs;
    if (!counter_is_lhs) exit_rel = mirrored(exit_rel);

    // 3. Limit: a constant, or a loop-invariant place with a finite bound
    // on loop entry under the environment model.
    const bool limit_is_place = limit.k == Sym::K::kPlace && limit.c == 0;
    if (limit_is_place) {
      for (std::size_t pc = loop.head; pc <= loop.end; ++pc) {
        if (reachable[pc] && writes_place(code[pc], limit.place)) {
          return "loop bound is written inside the loop (insn " +
                 std::to_string(pc) + ")";
        }
      }
      loop.limit_place = limit.place;
    } else if (limit.k != Sym::K::kConst) {
      return "unrecognized loop bound expression";
    } else {
      loop.limit_const = limit.c;
    }
    loop.counter = counter;
    loop.step = step;
    loop.exit_rel = exit_rel;
    return {};
  };

  bool any_shaped = false;
  for (Loop& loop : loops) {
    if (!states.has(loop.head)) continue;  // dead loop: no cost
    loop.why = shape_loop(loop);
    any_shaped = any_shaped || loop.why.empty();
  }

  // 4. Entry values: counter and limit joined over each loop's entry edges
  // — the states flowing into the head from *outside* [head, end] — in one
  // walk over the whole program. The joined head state is useless here:
  // widening pushed the counter's range to infinity (by design), but on
  // entry the counter is precise, and since the single increment site
  // advances it monotonically toward the exit and nothing else writes it,
  // the entry value bounds the trip count by induction.
  auto collect = [&](std::size_t from, std::size_t to, const State& st) {
    const auto it = std::lower_bound(
        loops.begin(), loops.end(), to,
        [](const Loop& l, std::size_t pc) { return l.head < pc; });
    if (it == loops.end() || it->head != to || !it->why.empty()) return;
    Loop& loop = *it;
    if (from >= loop.head && from <= loop.end) return;
    auto get = [&](const Place& p) {
      return p.is_slot ? st.slots[slot_map.of(p.idx)] : st.regs[p.idx];
    };
    const AbsVal c = get(loop.counter);
    const AbsVal l = loop.limit_place.valid() ? get(loop.limit_place)
                                              : AbsVal{};
    if (!loop.entry_seen) {
      loop.entry_counter = c;
      loop.entry_limit = l;
      loop.entry_seen = true;
    } else {
      loop.entry_counter = join(loop.entry_counter, c);
      loop.entry_limit = join(loop.entry_limit, l);
    }
  };
  if (any_shaped) {
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (is_leader[pc] && states.has(pc)) walk_block(pc, nullptr, collect);
    }
  }

  // 5. Trip count from direction + exit relation + entry interval. Returns
  // why the loop cannot be bounded, or an empty string with `loop.trips`
  // set.
  auto bound_trips = [&](Loop& loop) -> std::string {
    if (!loop.entry_seen) {
      return "loop head has no entry edge from outside the loop";
    }
    if (loop.entry_counter.is_uninit_path()) {
      return "loop counter may be uninitialized on loop entry";
    }
    Interval limit_iv;
    if (loop.limit_place.valid()) {
      if (loop.entry_limit.is_uninit_path()) {
        return "loop bound may be uninitialized on loop entry";
      }
      limit_iv = loop.entry_limit.iv;
    } else {
      limit_iv = Interval::of(loop.limit_const);
    }

    const Interval counter_iv = loop.entry_counter.iv;
    const Rel exit_rel = loop.exit_rel;
    Wide span;
    if (loop.step > 0 && (exit_rel == Rel::kGe || exit_rel == Rel::kGt)) {
      if (limit_iv.hi == kMax) return "loop bound has no finite upper bound";
      if (counter_iv.lo == kMin) {
        return "loop counter has no finite lower bound";
      }
      span = static_cast<Wide>(limit_iv.hi) - counter_iv.lo +
             (exit_rel == Rel::kGt ? 1 : 0);
    } else if (loop.step < 0 &&
               (exit_rel == Rel::kLe || exit_rel == Rel::kLt)) {
      if (limit_iv.lo == kMin) return "loop bound has no finite lower bound";
      if (counter_iv.hi == kMax) {
        return "loop counter has no finite upper bound";
      }
      span = static_cast<Wide>(counter_iv.hi) - limit_iv.lo +
             (exit_rel == Rel::kLt ? 1 : 0);
    } else {
      return "loop counter does not advance toward the exit condition";
    }
    if (span < 0) span = 0;
    const Wide mag =
        loop.step > 0 ? loop.step : -static_cast<Wide>(loop.step);
    Wide trips = span / mag + 1;
    if (trips > kWcetCap) trips = kWcetCap;
    loop.trips = static_cast<std::int64_t>(trips);
    return {};
  };

  bool all_bounded = true;
  for (Loop& loop : loops) {
    if (!states.has(loop.head)) continue;  // dead loop: no cost
    if (loop.why.empty()) loop.why = bound_trips(loop);
    if (loop.why.empty()) continue;
    all_bounded = false;
    const std::size_t src = loop.back_edges.front();
    AbsintDiag d;
    d.pc = loop.head;
    d.message = "cannot bound loop at insn " + std::to_string(loop.head) +
                " (back edge at insn " + std::to_string(src) + "): " +
                loop.why;
    d.path = path_to(src);
    if (seen.insert({d.pc, d.message}).second) {
      result.diags.push_back(std::move(d));
    }
  }

  // ---- Derived worst-case instruction count ----------------------------------
  if (all_bounded) {
    Wide total = 0;
    for (std::size_t pc = 0; pc < n; ++pc) {
      if (!reachable[pc]) continue;
      Wide mult = 1;
      for (const Loop& loop : loops) {
        if (!states.has(loop.head)) continue;
        if (pc >= loop.head && pc <= loop.end) {
          mult *= static_cast<Wide>(loop.trips) + 1;
          if (mult > kWcetCap) {
            mult = kWcetCap;
            break;
          }
        }
      }
      total += mult;
      if (total > kWcetCap) {
        total = kWcetCap;
        break;
      }
    }
    result.derived_insn_bound = static_cast<std::int64_t>(total);
    if (options.exec_budget > 0 &&
        result.derived_insn_bound > options.exec_budget) {
      std::size_t anchor = 0;
      std::int64_t worst = 0;
      for (const Loop& loop : loops) {
        if (states.has(loop.head) && loop.trips > worst) {
          worst = loop.trips;
          anchor = loop.head;
        }
      }
      sink.emit(anchor,
                "derived worst-case instruction count " +
                    std::to_string(result.derived_insn_bound) +
                    " exceeds the execution budget " +
                    std::to_string(options.exec_budget) +
                    " (environment model: queue length <= " +
                    std::to_string(kModelQueueLen) + ", subflows <= " +
                    std::to_string(kModelSbfCount) + ")");
    }
  }

  result.ok = result.diags.empty();
  if (!result.ok) result.derived_insn_bound = 0;
  return result;
}

}  // namespace progmp::rt::ebpf
