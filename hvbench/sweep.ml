(* scenario-sweep: every golden fault scenario, in registry order.

   One op is one [Scenarios.run].  Each builds a fresh rig inside the
   op, because every `guillotine faults` invocation pays that build; so
   rig construction (core, crypto, hsm) dominates and guest execution is
   a small share.  A run plays whole passes over the registry, so each
   run weighs the fourteen scenarios equally. *)

open Harness
module Scenarios = Guillotine_faults.Scenarios
module Sha256 = Guillotine_crypto.Sha256
module Signature = Guillotine_crypto.Signature
module Deployment = Guillotine_core.Deployment
module Prng = Guillotine_util.Prng

(* The seed-independent verdict shape pinned by test/test_faults.ml. *)
let expected_verdicts =
  [
    ("heartbeat-outage", "contained");
    ("weight-tamper-rollback", "recovered");
    ("core-wedge-rollback", "recovered");
    ("false-alarm-probation", "contained");
    ("nic-flaky-attest", "recovered");
    ("device-stall-shedding", "degraded-gracefully");
    ("irq-storm-contained", "contained");
    ("fault-storm-failover", "failed-over");
    ("toctou-dma-self-patch", "contained");
    ("toctou-shared-window-rewrite", "contained");
    ("toctou-install-race", "contained");
    ("killswitch-exfil-sprint", "contained");
    ("killswitch-replicate", "contained");
    ("killswitch-hostage", "escalation-not-deterred");
  ]

(* Set-up warms the process with the cheapest scenario that builds a
   whole deployment rig, so the first timed op does not pay heap growth
   and first-touch costs. *)
let warm_up = "false-alarm-probation"

let outcome_digest (o : Scenarios.outcome) =
  Sha256.digest_hex (Scenarios.summary o ^ "\n" ^ o.Scenarios.trace)

let check_outcome ctx name (o : Scenarios.outcome) =
  let verdict_ok =
    check ctx
      (Some o.Scenarios.verdict = List.assoc_opt name expected_verdicts)
      (Printf.sprintf "%s: verdict %s" name o.Scenarios.verdict)
  in
  let adversary_ok =
    if not (List.mem name Scenarios.adversaries) then true
    else
      match o.Scenarios.adversary with
      | Some a ->
        check ctx
          (a.Scenarios.detected_at <> None && a.Scenarios.contained_at <> None)
          (name ^ ": adversary not both detected and contained")
      | None -> check ctx false (name ^ ": no adversary outcome")
  in
  verdict_ok && adversary_ok

let run_scenario ~seed name =
  Span.with_ ~layer:"faults" ("Scenarios.run:" ^ name) (fun () ->
      Scenarios.run ~seed name)

type state = { mutable passes : int }

let setup ctx =
  ignore (run_scenario ~seed:ctx.seed warm_up);
  { passes = 0 }

(* The exact section is taken from the first pass only, so it does not
   depend on how many passes fit in the run. *)
let pass ctx st =
  let horizon = ref 0.0 in
  List.iteri
    (fun i name ->
      Span.current_op := ctx.attempted;
      ignore
        (op ctx ~label:name (fun () ->
             let o = run_scenario ~seed:ctx.seed name in
             horizon := !horizon +. o.Scenarios.sim_horizon;
             if st.passes = 0 then
               exact ctx (Printf.sprintf "faults.%02d.%s" i name)
                 (o.Scenarios.verdict ^ " " ^ outcome_digest o);
             check_outcome ctx name o)))
    Scenarios.names;
  if st.passes = 0 then exact ctx "faults.sim_horizon_sum" (Printf.sprintf "%.17g" !horizon);
  st.passes <- st.passes + 1

let loop ctx st =
  let t0 = now () in
  let first = ref true in
  let last = ref 0.0 in
  (* Start another pass only if it is expected to end within the run. *)
  while !first || now () -. t0 +. !last <= ctx.seconds do
    first := false;
    let p0 = now () in
    pass ctx st;
    last := now () -. p0
  done;
  ctx.work <- float_of_int (List.length ctx.ops);
  ctx.work_secs <- List.fold_left (fun acc s -> acc +. s.secs) 0.0 ctx.ops;
  ctx.work_raw <- List.fold_left (fun acc s -> acc +. s.raw) 0.0 ctx.ops

(* The hash-based keys one [Deployment.create] generates: the regulator
   CA and the platform key (height 8), the TLS endpoint (6) and the
   console HSM's seven admins (5). *)
let rig_key_heights = [ 8; 8; 6; 5; 5; 5; 5; 5; 5; 5 ]

(* Per rig: the time and words of one rig's key set, and of the whole
   [Deployment.create], keygen included.  Its own share (about 1.3M of
   3.8e8 words) is smaller than the timing noise of two one-second
   probes, so no net time is reported.  Medians over the repeats. *)
let rig ctx ~seeds ~repeats =
  let samples =
    List.concat_map
      (fun _ ->
        List.map
          (fun seed ->
            let prng = Prng.create (Int64.of_int seed) in
            let keygen =
              List.map
                (fun height ->
                  snd
                    (probe ~layer:"crypto" "Signature.generate" (fun () ->
                         Signature.generate ~height prng)))
                rig_key_heights
            in
            let _, c =
              probe ~layer:"core" "Deployment.create" (fun () ->
                  Deployment.create ~seed:(Int64.of_int seed) ~name:"probe" ())
            in
            let sum f = List.fold_left (fun a k -> a +. f k) 0.0 keygen in
            (sum (fun k -> k.secs), sum (fun k -> k.words), c.secs, c.words))
          seeds)
      (List.init repeats Fun.id)
  in
  let med f = median (List.map f samples) in
  set_layer ctx "crypto.keygen_s" (med (fun (s, _, _, _) -> s));
  set_layer ctx "crypto.keygen_words" (med (fun (_, w, _, _) -> w));
  set_layer ctx "core.deployment_create_s" (med (fun (_, _, s, _) -> s));
  set_layer ctx "core.deployment_create_words" (med (fun (_, _, _, w) -> w))

(* crypto and core: the calls a rig build makes, probed from outside. *)
let probes ctx (_ : state) = rig ctx ~seeds:[ ctx.seed; ctx.seed + 1 ] ~repeats:3

(* Each scenario's span is scaled at the speed measured inside its op,
   as the end-to-end figures are, so [faults.pass_s] matches the traced
   pass and differs from the untraced one by the tracing overhead. *)
let per_layer ctx (_ : state) timed =
  let speed = Array.of_list (List.rev_map (fun s -> s.secs /. s.raw) ctx.ops) in
  let pass_s = ref 0.0 in
  List.iter
    (fun name ->
      let span = "Scenarios.run:" ^ name in
      let d, n =
        List.fold_left
          (fun (d, n) (s, _) ->
            if s.Span.name = span && s.Span.op >= 0 then
              (d +. (Span.duration s *. speed.(s.Span.op)), n + 1)
            else (d, n))
          (0.0, 0) timed
      in
      let run_s = d /. float_of_int (max 1 n) in
      pass_s := !pass_s +. run_s;
      set_layer ctx ("faults.run_s." ^ name) run_s;
      let w =
        List.filter_map (fun s -> if s.label = name then Some s.words else None) ctx.ops
      in
      set_layer ctx ("faults.words." ^ name) (mean w))
    Scenarios.names;
  set_layer ctx "faults.pass_s" !pass_s
