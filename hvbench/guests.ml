(* Guest programs, their OCaml-side checksums, and the core counters the
   two guest workloads read. *)

module Asm = Guillotine_isa.Asm
module Machine = Guillotine_machine.Machine
module Core = Guillotine_microarch.Core
module Jit = Guillotine_microarch.Jit
module Cache = Guillotine_memory.Cache
module Hierarchy = Guillotine_memory.Hierarchy
module Engine = Guillotine_sim.Engine
module Hypervisor = Guillotine_hv.Hypervisor
module Guest = Guillotine_model.Guest_programs

let page = 256
let code_pages = 4

(* ---- the benign compute loop ---- *)

(* [Guest.compute_loop]'s result: the sum of i*i for i < n. *)
let compute_checksum n =
  let acc = ref 0L in
  for i = 0 to n - 1 do
    acc := Int64.add !acc (Int64.mul (Int64.of_int i) (Int64.of_int i))
  done;
  !acc

(* ---- the memory sweep ---- *)

(* A load/store sweep over [sweep_pages] data pages: each pass loads
   one word per cache line, adds it to the checksum and stores it back
   plus one.  The working set (32 KiW) is eight times the modelled L1
   and twice the 64-entry TLB's reach, so the guest spends its time in
   the memory hierarchy. *)
let sweep_pages = 128
let sweep_base = (code_pages + 1) * page (* page 4 holds the result *)
let sweep_end = sweep_base + (sweep_pages * page)
let sweep_stride = 8 (* one L1 line *)
let sweep_data_pages = 1 + sweep_pages
let sweep_accesses = (sweep_end - sweep_base) / sweep_stride

let sweep_source ~passes =
  Printf.sprintf
    {|
  jmp @start
  .zero 7
  .zero 8
start:
  movi r1, 0
  movi r2, %d        ; passes
  movi r3, 0         ; checksum
  movi r5, %d        ; stride
  movi r7, 1
  movi r6, %d        ; end of the data
pass:
  movi r4, %d        ; first data word
walk:
  load  r8, r4, 0
  add   r3, r3, r8
  add   r8, r8, r7
  store r4, r8, 0
  add   r4, r4, r5
  blt   r4, r6, @walk
  add   r1, r1, r7
  blt   r1, r2, @pass
  movi  r9, %d
  store r9, r3, 0
  halt
|}
    passes sweep_stride sweep_end sweep_base Guest.result_base

(* The data the benchmark supplies: one seeded value per swept word. *)
let sweep_data ~seed =
  let prng = Guillotine_util.Prng.create (Int64.of_int (seed * 7919 + 17)) in
  Array.init sweep_accesses (fun _ -> Guillotine_util.Prng.int prng (1 lsl 30))

let write_sweep_data m data =
  Array.iteri
    (fun i v -> Machine.inspect_write m (sweep_base + (i * sweep_stride)) (Int64.of_int v))
    data

(* Run [k] (0-based) of the sweep sees every word raised by [k*passes]
   since the data was written. *)
let sweep_checksum ~data ~passes ~k =
  let s0 = Array.fold_left ( + ) 0 data in
  let n = Array.length data in
  Int64.of_int
    ((passes * s0) + (n * ((k * passes * passes) + (passes * (passes - 1) / 2))))

(* ---- drivers ---- *)

(* The production batched driver: one heap event per 64 quanta of 4096
   cycles, until no core retires anything. *)
let run_batched m =
  let e = Engine.create () in
  ignore
    (Engine.every_batch e ~period:1.0 ~batch:64 (fun () ->
         Span.with_ ~layer:"microarch" "Machine.run_cores" (fun () ->
             Machine.run_cores m ~cycles:4096 > 0)));
  Span.with_ ~layer:"sim" "Engine.run" (fun () -> Engine.run e)

let install hv ?(extra = []) ~label ~data_pages ?(code_pages = code_pages) program =
  Span.with_ ~layer:"hv" "Hypervisor.install_program" (fun () ->
      Hypervisor.install_program hv
        ~vet_policy:{ Hypervisor.default_vet_policy with extra }
        ~label ~core:0 ~code_pages ~data_pages program)

let result m = Machine.inspect_read m Guest.result_base

(* ---- counters ---- *)

type counters = {
  retired : int;
  cycles : int;
  translations : int;
  invalidations : int;
  block_exits : int;
  pd_hits : int;
  pd_fills : int;
  irqs : int;
  l1_hits : int;
  l1_misses : int;
  hier_cycles : int;
}

let zero =
  {
    retired = 0;
    cycles = 0;
    translations = 0;
    invalidations = 0;
    block_exits = 0;
    pd_hits = 0;
    pd_fills = 0;
    irqs = 0;
    l1_hits = 0;
    l1_misses = 0;
    hier_cycles = 0;
  }

let read c =
  let js = Core.jit_stats c in
  let pd_hits, pd_fills = Core.predecode_stats c in
  let h = Core.hierarchy c in
  let l1_hits, l1_misses = Cache.stats (Hierarchy.l1 h) in
  {
    retired = Core.instructions_retired c;
    cycles = Core.cycles c;
    translations = js.Jit.translations;
    invalidations = js.Jit.invalidations;
    block_exits = js.Jit.block_exits;
    pd_hits;
    pd_fills;
    irqs = Core.interrupts_delivered c;
    l1_hits;
    l1_misses;
    hier_cycles = Hierarchy.cycles_spent h;
  }

let map2 f a b =
  {
    retired = f a.retired b.retired;
    cycles = f a.cycles b.cycles;
    translations = f a.translations b.translations;
    invalidations = f a.invalidations b.invalidations;
    block_exits = f a.block_exits b.block_exits;
    pd_hits = f a.pd_hits b.pd_hits;
    pd_fills = f a.pd_fills b.pd_fills;
    irqs = f a.irqs b.irqs;
    l1_hits = f a.l1_hits b.l1_hits;
    l1_misses = f a.l1_misses b.l1_misses;
    hier_cycles = f a.hier_cycles b.hier_cycles;
  }

(* The counters [f] moves on core [c]. *)
let delta c f =
  let before = read c in
  let v = f () in
  (v, map2 ( - ) (read c) before)

(* Per-layer metrics from counters summed over [rounds] rounds and the
   spans of the traced loop. *)
let layers ctx ~rounds total timed =
  let per_round v = float_of_int v /. float_of_int (max 1 rounds) in
  let set = Harness.set_layer ctx in
  let run_s, _, _ = Span.total timed "Machine.run_cores" in
  let core_s, _, _ = Span.total timed "Core.run" in
  set "microarch.run_s" (Harness.span_secs (run_s +. core_s) /. float_of_int (max 1 rounds));
  set "microarch.instr_retired" (per_round total.retired);
  set "microarch.jit.translations" (per_round total.translations);
  set "microarch.jit.invalidations" (per_round total.invalidations);
  set "microarch.jit.block_exits" (per_round total.block_exits);
  set "microarch.jit.wasted_frac"
    (if total.translations = 0 then 0.0
     else float_of_int total.invalidations /. float_of_int total.translations);
  set "microarch.predecode.hits" (per_round total.pd_hits);
  set "microarch.predecode.fills" (per_round total.pd_fills);
  set "microarch.predecode.hit_ratio"
    (let n = total.pd_hits + total.pd_fills in
     if n = 0 then 0.0 else float_of_int total.pd_hits /. float_of_int n);
  set "microarch.irqs" (per_round total.irqs);
  set "memory.l1.hits" (per_round total.l1_hits);
  set "memory.l1.misses" (per_round total.l1_misses);
  set "memory.hierarchy_cycles" (per_round total.hier_cycles);
  set "machine.sim_cycles" (per_round total.cycles);
  let _, engine_self, _ = Span.total timed "Engine.run" in
  set "sim.engine_run_s" (Harness.span_secs engine_self /. float_of_int (max 1 rounds));
  let install_s, _, n = Span.total timed "Hypervisor.install_program" in
  set "hv.install_s" (Harness.span_secs install_s /. float_of_int (max 1 n));
  let create_s, _, n = Span.total timed "Machine.create" in
  set "machine.create_s" (Harness.span_secs create_s /. float_of_int (max 1 n))

let exact_counters ctx prefix c =
  let e k v = Harness.exact_int ctx (prefix ^ "." ^ k) v in
  e "retired" c.retired;
  e "sim_cycles" c.cycles;
  e "irqs" c.irqs;
  e "l1.hits" c.l1_hits;
  e "l1.misses" c.l1_misses;
  e "hierarchy_cycles" c.hier_cycles
