(* guest-churn: guests reinstalled through the vetting path, then run.

   Each round (a) admits every Vet_corpus entry through
   [Hypervisor.install_program] and every co-admission roster through
   [Hypervisor.coadmit], in a seed-shuffled order, on fresh
   hypervisors; (b) runs the patch loop, where the host rewrites the
   hot word between runs so each run invalidates and retranslates; (c)
   runs the guest-internal preemptive scheduler and a timer-armed
   compute loop, on which the JIT is bypassed and every fetch goes
   through predecode.  The op is one admission: this is the one workload
   whose result is admission latency.  Guest instructions per second
   come from (b) and (c). *)

open Harness
open Guests
module Vet = Guillotine_vet.Vet
module Vet_corpus = Guillotine_core.Vet_corpus
module Isa = Guillotine_isa.Isa
module Encoding = Guillotine_isa.Encoding

type admission =
  | Entry of Vet_corpus.entry * Asm.program
  | Roster of Vet_corpus.roster

let admission_name = function
  | Entry (e, _) -> e.Vet_corpus.name
  | Roster r -> "roster:" ^ r.Vet_corpus.roster_name

let patch_iterations = 64
let patch_runs = 120
let scheduler_fuel = 400_000
let timer_iterations = 100_000
let timer_interval = 2_000

type state = {
  m : Machine.t;
  hv : Hypervisor.t;
  core : Core.t;
  admissions : admission list;  (** shuffled once per run *)
  patch : Asm.program;
  mul_addr : int;
  scheduler : Asm.program;
  timed_loop : Asm.program;
  mutable reference : (string * int) list option;
  mutable rounds : int;
  mutable total : counters;
}

let shuffle ~seed l =
  let prng = Guillotine_util.Prng.create (Int64.of_int (seed + 0x5EED)) in
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Guillotine_util.Prng.int prng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let mul_a = Encoding.encode (Isa.Mul (6, 1, 1))
let mul_b = Encoding.encode (Isa.Mul (6, 5, 5)) (* r5 = 1, so r6 = 1 *)

let build ctx =
  let m = Span.with_ ~layer:"machine" "Machine.create" (fun () -> Machine.create ()) in
  Machine.pause_all_models m;
  let patch = Asm.assemble_exn (Guest.compute_loop ~iterations:patch_iterations) in
  let mul_addr =
    let rec find i =
      if i >= Array.length patch.Asm.words then invalid_arg "patch loop: no mul word"
      else if patch.Asm.words.(i) = mul_a then patch.Asm.origin + i
      else find (i + 1)
    in
    find 0
  in
  let admissions =
    List.map (fun e -> Entry (e, Asm.assemble_exn e.Vet_corpus.source)) Vet_corpus.all
    @ List.map (fun r -> Roster r) Vet_corpus.coadmit_rosters
  in
  {
    m;
    hv = Hypervisor.create ~machine:m ();
    core = Machine.model_core m 0;
    admissions = shuffle ~seed:ctx.seed admissions;
    patch;
    mul_addr;
    scheduler = Asm.assemble_exn Guest.preemptive_scheduler;
    timed_loop = Asm.assemble_exn (Guest.compute_loop ~iterations:timer_iterations);
    reference = None;
    rounds = 0;
    total = zero;
  }

let verdict_of = function Ok r | Error r -> r

(* (a): the entries share one fresh hypervisor (a later install
   replaces the earlier guest); each roster gets its own, because an
   admitted roster stays resident and would be judged against the next. *)
let admit ctx ~timed st =
  let scratch = Machine.create () in
  Machine.pause_all_models scratch;
  let hv = Hypervisor.create ~machine:scratch () in
  List.iter
    (fun a ->
      let name = admission_name a in
      let call () =
        match a with
        | Entry (e, program) ->
          let r =
            install hv ~extra:e.Vet_corpus.extra ~label:name
              ~code_pages:e.Vet_corpus.code_pages ~data_pages:e.Vet_corpus.data_pages
              program
          in
          let verdict =
            match r with
            | Ok (Some r) | Error r -> r.Vet.verdict
            | Ok None -> Vet.Admit
          in
          check ctx (verdict = e.Vet_corpus.expected) (name ^ ": admission verdict")
        | Roster r ->
          let hv = Hypervisor.create ~machine:scratch () in
          let report =
            verdict_of
              (Span.with_ ~layer:"hv" "Hypervisor.coadmit" (fun () ->
                   Hypervisor.coadmit hv ~label:name r.Vet_corpus.members))
          in
          check ctx
            (report.Guillotine_vet.Interfere.verdict = r.Vet_corpus.expect)
            (name ^ ": co-admission verdict")
      in
      Span.current_op := ctx.attempted;
      if timed then ignore (op ctx ~label:name call) else ignore (call ()))
    st.admissions

(* (b) and (c) on the round's own machine.  Returns the section
   fingerprints that must repeat every round, whether the results were
   right, and the time inside the run calls. *)
let run_guests st =
  let run_s = ref 0.0 in
  let core_run ~fuel =
    let n, dt =
      interval (fun () ->
          Span.with_ ~layer:"microarch" "Core.run" (fun () -> Core.run st.core ~fuel))
    in
    run_s := !run_s +. dt;
    n
  in
  let installed label program =
    match install st.hv ~label ~data_pages:4 program with Ok _ -> true | Error _ -> false
  in
  let failed = ref [] in
  let expect what b = if not b then failed := what :: !failed in
  (* (b) the patch loop: run 0 is the freshly installed image, then the
     host alternates the hot word between two encodings. *)
  let (), patch =
    delta st.core (fun () ->
        expect "patch install" (installed "patch-loop" st.patch);
        let full = compute_checksum patch_iterations in
        for k = 0 to patch_runs - 1 do
          if k > 0 then begin
            Machine.inspect_write st.m st.mul_addr (if k land 1 = 1 then mul_b else mul_a);
            Core.set_pc st.core st.patch.Asm.origin;
            Core.resume st.core
          end;
          ignore (core_run ~fuel:max_int);
          let want = if k land 1 = 1 then Int64.of_int patch_iterations else full in
          expect "patch checksum" (result st.m = want)
        done)
  in
  (* (c) the scheduler: both task counters must advance. *)
  let (), sched =
    delta st.core (fun () ->
        expect "scheduler install" (installed "scheduler" st.scheduler);
        Core.pause st.core;
        Machine.inspect_write st.m Guest.result_base 0L;
        Machine.inspect_write st.m (Guest.result_base + 1) 0L;
        Core.resume st.core;
        Core.set_timer st.core ~interval:timer_interval;
        ignore (core_run ~fuel:scheduler_fuel);
        Core.set_timer st.core ~interval:0;
        Core.pause st.core)
  in
  let t0 = Machine.inspect_read st.m Guest.result_base in
  let t1 = Machine.inspect_read st.m (Guest.result_base + 1) in
  expect "scheduler counters" (t0 > 0L && t1 > 0L);
  let (), timed_loop =
    delta st.core (fun () ->
        expect "timer loop install" (installed "timer-loop" st.timed_loop);
        Core.set_timer st.core ~interval:timer_interval;
        ignore (core_run ~fuel:max_int);
        Core.set_timer st.core ~interval:0)
  in
  expect "timer loop checksum" (result st.m = compute_checksum timer_iterations);
  let fingerprint =
    [
      ("patch.retired", patch.retired);
      ("patch.sim_cycles", patch.cycles);
      ("scheduler.retired", sched.retired);
      ("scheduler.sim_cycles", sched.cycles);
      ("scheduler.irqs", sched.irqs);
      ("scheduler.task0", Int64.to_int t0);
      ("scheduler.task1", Int64.to_int t1);
      ("timer_loop.retired", timed_loop.retired);
      ("timer_loop.sim_cycles", timed_loop.cycles);
    ]
  in
  let total = map2 ( + ) patch (map2 ( + ) sched timed_loop) in
  (fingerprint, List.rev !failed, total, !run_s)

let round ctx ~timed st =
  admit ctx ~timed st;
  let fingerprint, failed, total, run_s = run_guests st in
  if timed then begin
    let same =
      match st.reference with
      | None ->
        st.reference <- Some fingerprint;
        List.iter (fun (k, v) -> exact_int ctx k v) fingerprint;
        true
      | Some r -> r = fingerprint
    in
    ctx.attempted <- ctx.attempted + 1;
    let ok = check ctx (failed = []) ("guest checks: " ^ String.concat ", " failed) in
    if not (check ctx same "guest fingerprint changed" && ok)
    then ctx.failed <- ctx.failed + 1;
    st.rounds <- st.rounds + 1;
    st.total <- map2 ( + ) st.total total;
    add_work ctx ~work:(float_of_int total.retired) ~raw:run_s
  end

let setup ctx =
  let st = build ctx in
  (* Warm-up round: the host heap and the corpus' first-use costs. *)
  round ctx ~timed:false st;
  st

let loop ctx st =
  let t0 = now () in
  while now () -. t0 < ctx.seconds do
    round ctx ~timed:true st
  done

(* vet.*: the vetter alone, on the same corpus and rosters. *)
let probes ctx st =
  let mismatches = ref 0 in
  let analyze = ref 0.0 and interfere = ref 0.0 in
  let entries = ref 0 and rosters = ref 0 in
  List.iter
    (function
      | Entry (e, _) ->
        let r, c = probe ~layer:"vet" "Vet_corpus.vet" (fun () -> Vet_corpus.vet e) in
        analyze := !analyze +. c.secs;
        incr entries;
        if r.Vet.verdict <> e.Vet_corpus.expected then incr mismatches
      | Roster r ->
        let rep, c =
          probe ~layer:"vet" "Vet_corpus.coadmit" (fun () -> Vet_corpus.coadmit r)
        in
        interfere := !interfere +. c.secs;
        incr rosters;
        if rep.Guillotine_vet.Interfere.verdict <> r.Vet_corpus.expect then incr mismatches)
    st.admissions;
  set_layer ctx "vet.analyze_s" (!analyze /. float_of_int (max 1 !entries));
  set_layer ctx "vet.interfere_s" (!interfere /. float_of_int (max 1 !rosters));
  set_layer ctx "vet.verdict_mismatches" (float_of_int !mismatches)

let per_layer ctx st timed =
  layers ctx ~rounds:st.rounds st.total timed;
  let s, _, n = Span.total timed "Hypervisor.coadmit" in
  set_layer ctx "hv.coadmit_s" (span_secs s /. float_of_int (max 1 n))
