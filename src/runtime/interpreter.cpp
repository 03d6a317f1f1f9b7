#include "runtime/interpreter.hpp"

#include <limits>

#include "core/check.hpp"
#include "runtime/arith.hpp"

namespace progmp::rt {
namespace {

using lang::Expr;
using lang::ExprId;
using lang::ExprKind;
using lang::Program;
using lang::Stmt;
using lang::StmtId;
using lang::StmtKind;
using lang::Type;
using mptcp::QueueId;

/// A runtime value. Packet values are handles into the environment's pin
/// table; subflow values are dense indices (-1 = NULL). Lists and queues are
/// materialized eagerly — the interpreter is the unoptimized baseline; the
/// compiled back ends fuse these into scan loops (late materialization).
struct Value {
  Type type = Type::kInt;
  std::int64_t i = 0;               // int / bool / subflow index / pkt handle
  std::vector<std::int64_t> items;  // subflow list or materialized queue
  QueueId base = QueueId::kQ;       // for queue values: originating queue
};

class Interp {
 public:
  Interp(const Program& program, SchedulerEnv& env)
      : program_(program), env_(env) {
    frame_.resize(static_cast<std::size_t>(program.frame_slots));
  }

  std::int64_t run() {
    for (StmtId id : program_.top) {
      exec_stmt(id);
      if (returned_) break;
    }
    return steps_;
  }

 private:
  Value& slot(std::int32_t s) {
    PROGMP_CHECK(s >= 0 && s < static_cast<std::int32_t>(frame_.size()));
    return frame_[static_cast<std::size_t>(s)];
  }

  void exec_stmt(StmtId id) {
    ++steps_;
    const Stmt& s = program_.stmt(id);
    switch (s.kind) {
      case StmtKind::kVarDecl:
        slot(s.var_slot) = eval(s.expr);
        break;
      case StmtKind::kIf: {
        const Value cond = eval(s.expr);
        const auto& branch = cond.i != 0 ? s.body : s.else_body;
        for (StmtId b : branch) {
          exec_stmt(b);
          if (returned_) return;
        }
        break;
      }
      case StmtKind::kForeach: {
        const Value list = eval(s.expr);
        for (std::int64_t elem : list.items) {
          Value v;
          v.type = Type::kSubflow;
          v.i = elem;
          slot(s.var_slot) = v;
          for (StmtId b : s.body) {
            exec_stmt(b);
            if (returned_) return;
          }
        }
        break;
      }
      case StmtKind::kSet:
        env_.set_reg(s.int_value, eval(s.expr).i);
        break;
      case StmtKind::kDrop:
        env_.drop(static_cast<PktHandle>(eval(s.expr).i));
        break;
      case StmtKind::kPrint:
        env_.print(eval(s.expr).i);
        break;
      case StmtKind::kReturn:
        returned_ = true;
        break;
      case StmtKind::kExprStmt:
        eval(s.expr);
        break;
    }
  }

  /// Materializes a list/queue expression into element values:
  /// dense subflow indices, or packet handles for queues.
  Value materialize(const Expr& e) {
    Value v;
    if (e.kind == ExprKind::kSubflows) {
      v.type = Type::kSubflowList;
      for (std::int64_t i = 0; i < env_.sbf_count(); ++i) v.items.push_back(i);
      return v;
    }
    if (e.kind == ExprKind::kQueue) {
      v.type = Type::kPacketQueue;
      v.base = static_cast<QueueId>(e.int_value);
      const std::int64_t len = env_.queue_len(v.base);
      for (std::int64_t i = 0; i < len; ++i) {
        v.items.push_back(static_cast<std::int64_t>(env_.queue_nth(v.base, i)));
      }
      return v;
    }
    PROGMP_UNREACHABLE("not a materializable base");
  }

  Value eval(ExprId id) {
    ++steps_;
    const Expr& e = program_.expr(id);
    Value v;
    switch (e.kind) {
      case ExprKind::kIntLit:
        v.type = Type::kInt;
        v.i = e.int_value;
        break;
      case ExprKind::kBoolLit:
        v.type = Type::kBool;
        v.i = e.int_value;
        break;
      case ExprKind::kNullLit:
        // NULL unifies with packet (handle 0) and subflow (-1); comparisons
        // normalize, so represent it canonically as a packet-style 0 and let
        // kEq/kNe handle the subflow case.
        v.type = Type::kNull;
        v.i = 0;
        break;
      case ExprKind::kRegister:
        v.type = Type::kInt;
        v.i = env_.reg(e.int_value);
        break;
      case ExprKind::kVarRef:
        return slot(e.var_slot);
      case ExprKind::kSubflows:
      case ExprKind::kQueue:
        return materialize(e);
      case ExprKind::kCurrentTimeMs:
        v.type = Type::kInt;
        v.i = env_.time_ms();
        break;
      case ExprKind::kUnary: {
        const Value a = eval(e.a);
        v.type = e.un_op == lang::UnOp::kNeg ? Type::kInt : Type::kBool;
        v.i = e.un_op == lang::UnOp::kNeg ? arith::neg(a.i)
                                          : (a.i == 0 ? 1 : 0);
        break;
      }
      case ExprKind::kBinary:
        return eval_binary(e);
      case ExprKind::kFilter: {
        Value base = eval(e.a);
        Value out;
        out.type = base.type;
        out.base = base.base;
        const Type elem_type = base.type == Type::kSubflowList
                                   ? Type::kSubflow
                                   : Type::kPacket;
        for (std::int64_t elem : base.items) {
          bind_param(e.var_slot, elem_type, elem);
          if (eval(e.b).i != 0) out.items.push_back(elem);
        }
        return out;
      }
      case ExprKind::kMinBy:
      case ExprKind::kMaxBy: {
        Value base = eval(e.a);
        const Type elem_type = base.type == Type::kSubflowList
                                   ? Type::kSubflow
                                   : Type::kPacket;
        const bool is_min = e.kind == ExprKind::kMinBy;
        std::int64_t best_key = is_min ? std::numeric_limits<std::int64_t>::max()
                                       : std::numeric_limits<std::int64_t>::min();
        std::int64_t best = elem_type == Type::kSubflow ? -1 : 0;
        for (std::int64_t elem : base.items) {
          bind_param(e.var_slot, elem_type, elem);
          const std::int64_t key = eval(e.b).i;
          // Strict comparison: ties resolve to the first element.
          if (is_min ? key < best_key : key > best_key) {
            best_key = key;
            best = elem;
          }
        }
        v.type = elem_type;
        v.i = best;
        break;
      }
      case ExprKind::kSumBy: {
        Value base = eval(e.a);
        const Type elem_type = base.type == Type::kSubflowList
                                   ? Type::kSubflow
                                   : Type::kPacket;
        std::int64_t sum = 0;
        for (std::int64_t elem : base.items) {
          bind_param(e.var_slot, elem_type, elem);
          sum = arith::add(sum, eval(e.b).i);
        }
        v.type = Type::kInt;
        v.i = sum;
        break;
      }
      case ExprKind::kCount: {
        v.type = Type::kInt;
        v.i = static_cast<std::int64_t>(eval(e.a).items.size());
        break;
      }
      case ExprKind::kEmpty: {
        v.type = Type::kBool;
        v.i = eval(e.a).items.empty() ? 1 : 0;
        break;
      }
      case ExprKind::kGet: {
        const Value base = eval(e.a);
        const Value index = eval(e.b);
        v.type = Type::kSubflow;
        v.i = (index.i >= 0 &&
               index.i < static_cast<std::int64_t>(base.items.size()))
                  ? base.items[static_cast<std::size_t>(index.i)]
                  : -1;
        break;
      }
      case ExprKind::kTop: {
        const Value base = eval(e.a);
        v.type = Type::kPacket;
        v.i = base.items.empty() ? 0 : base.items.front();
        break;
      }
      case ExprKind::kPop: {
        const Expr& q = program_.expr(e.a);
        PROGMP_CHECK(q.kind == ExprKind::kQueue);
        v.type = Type::kPacket;
        v.i = static_cast<std::int64_t>(
            env_.pop_front(static_cast<QueueId>(q.int_value)));
        break;
      }
      case ExprKind::kSbfProp: {
        const Value sbf = eval(e.a);
        v.type = e.type;
        v.i = env_.sbf_prop(sbf.i, e.sbf_prop);
        break;
      }
      case ExprKind::kPktProp: {
        const Value pkt = eval(e.a);
        const std::int64_t arg =
            e.b != lang::kNoExpr ? eval(e.b).i : -1;
        v.type = e.type;
        v.i = env_.pkt_prop(static_cast<PktHandle>(pkt.i), e.pkt_prop, arg);
        break;
      }
      case ExprKind::kHasWindowFor: {
        const Value sbf = eval(e.a);
        const Value pkt = eval(e.b);
        v.type = Type::kBool;
        v.i = env_.has_window_for(sbf.i, static_cast<PktHandle>(pkt.i));
        break;
      }
      case ExprKind::kPush: {
        const Value sbf = eval(e.a);
        const Value pkt = eval(e.b);
        env_.push(sbf.i, static_cast<PktHandle>(pkt.i));
        v.type = Type::kVoid;
        break;
      }
      case ExprKind::kMember:
        PROGMP_UNREACHABLE("unresolved member survived analysis");
    }
    return v;
  }

  Value eval_binary(const Expr& e) {
    const Value a = eval(e.a);
    const Value b = eval(e.b);
    Value v;
    v.type = Type::kInt;
    using lang::BinOp;
    switch (e.bin_op) {
      case BinOp::kAdd: v.i = arith::add(a.i, b.i); break;
      case BinOp::kSub: v.i = arith::sub(a.i, b.i); break;
      case BinOp::kMul: v.i = arith::mul(a.i, b.i); break;
      case BinOp::kDiv: v.i = arith::div(a.i, b.i); break;
      case BinOp::kMod: v.i = arith::mod(a.i, b.i); break;
      case BinOp::kLt: v.type = Type::kBool; v.i = a.i < b.i; break;
      case BinOp::kGt: v.type = Type::kBool; v.i = a.i > b.i; break;
      case BinOp::kLe: v.type = Type::kBool; v.i = a.i <= b.i; break;
      case BinOp::kGe: v.type = Type::kBool; v.i = a.i >= b.i; break;
      case BinOp::kAnd: v.type = Type::kBool; v.i = (a.i != 0 && b.i != 0); break;
      case BinOp::kOr: v.type = Type::kBool; v.i = (a.i != 0 || b.i != 0); break;
      case BinOp::kEq:
      case BinOp::kNe: {
        const std::int64_t na = normalize_for_eq(a, b);
        const std::int64_t nb = normalize_for_eq(b, a);
        const bool eq = na == nb;
        v.type = Type::kBool;
        v.i = (e.bin_op == BinOp::kEq) == eq ? 1 : 0;
        break;
      }
    }
    return v;
  }

  /// NULL literals compare against subflows as -1 and against packets as 0.
  static std::int64_t normalize_for_eq(const Value& self, const Value& other) {
    if (self.type == Type::kNull && other.type == Type::kSubflow) return -1;
    return self.i;
  }

  void bind_param(std::int32_t param_slot, Type type, std::int64_t elem) {
    Value v;
    v.type = type;
    v.i = elem;
    slot(param_slot) = v;
  }

  const Program& program_;
  SchedulerEnv& env_;
  std::vector<Value> frame_;
  bool returned_ = false;
  std::int64_t steps_ = 0;  ///< statements executed + expressions evaluated
};

}  // namespace

std::int64_t interpret(const lang::Program& program, SchedulerEnv& env) {
  return Interp(program, env).run();
}

}  // namespace progmp::rt
