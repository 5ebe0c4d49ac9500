(* fleet-serve: a monitored fleet serving synthetic users.

   One op is one [Fleet.run] pass of four cells sharded over at most
   two domains (never more than the host recommends), with one rogue
   cell.  Fleet domain scheduling, GC synchronisation between domains,
   the observability plane and serving take most of the time; the rig
   build in each cell takes the rest.  This is the only workload that
   runs more than one domain, so it is timed with the wall clock. *)

open Harness
module Fleet = Guillotine_fleet.Fleet
module Cell = Guillotine_fleet.Cell
module Sha256 = Guillotine_crypto.Sha256

let cells = 4
let users = 128
let requests_per_user = 128
let rogue = 1

let domains () = min 2 (Domain.recommended_domain_count ())

let create ?(domains = domains ()) seed =
  Fleet.create ~seed ~cells ~domains ~users ~requests_per_user ~rogue ~storm:0 ()

type state = { fleet : Fleet.t; mutable passes : int }

(* fleet == concatenation: the digest the fleet must report is the one
   over each cell run solo.  It is computed once per process, outside
   the timed window, on the fleet's domain count (cells split
   round-robin). *)
let solo_digest fleet =
  let d = Fleet.domains fleet in
  let run_share k =
    List.filter_map
      (fun i ->
        if i mod d = k then Some (i, Cell.run (Fleet.cell_config fleet ~cell_id:i)) else None)
      (List.init cells Fun.id)
  in
  let workers = List.init (d - 1) (fun k -> Domain.spawn (fun () -> run_share (k + 1))) in
  let mine = run_share 0 in
  let reports = List.concat (mine :: List.map Domain.join workers) in
  List.sort (fun (a, _) (b, _) -> compare a b) reports
  |> List.map (fun (_, r) -> r.Cell.r_digest)
  |> String.concat "\n" |> Sha256.digest_hex

let reference = ref None

let reference_digest ctx fleet =
  match !reference with
  | Some d -> d
  | None ->
    let t0 = Unix.gettimeofday () in
    let d = solo_digest fleet in
    note ctx "solo reference: %.2f s wall, outside the timed window"
      (Unix.gettimeofday () -. t0);
    reference := Some d;
    d

(* Set-up builds the fleet handle and warms the process with one cell's
   rig build, the first thing every pass does. *)
let setup ctx =
  let fleet = create ctx.seed in
  ignore (Cell.create (Fleet.cell_config fleet ~cell_id:0));
  { fleet; passes = 0 }

let loop ctx st =
  let expected = reference_digest ctx st.fleet in
  let t0 = now () in
  let cpu = ref 0.0 in
  (* A pass is several seconds: start one whenever time remains, so a
     run has at least three. *)
  while now () -. t0 < ctx.seconds do
    Span.current_op := ctx.attempted;
    let cpu0 = Sys.time () in
    ignore
      (op ctx ~label:"pass" (fun () ->
           let v = Span.with_ ~layer:"fleet" "Fleet.run" (fun () -> Fleet.run st.fleet) in
           if st.passes = 0 then begin
             exact ctx "fleet.digest" v.Fleet.v_digest;
             exact_int ctx "fleet.requests" v.Fleet.v_requests;
             exact_int ctx "fleet.blocked" v.Fleet.v_blocked;
             exact_int ctx "fleet.released" v.Fleet.v_released;
             exact_int ctx "fleet.harmful_released" v.Fleet.v_harmful_released;
             exact_int ctx "fleet.alerts" (List.length v.Fleet.v_alerts);
             exact ctx "fleet.sim_horizon_sum"
               (Printf.sprintf "%.17g"
                  (List.fold_left ( +. ) 0.0
                     (List.init cells (fun i ->
                          Cell.sim_horizon (Fleet.cell_config st.fleet ~cell_id:i)))))
           end;
           st.passes <- st.passes + 1;
           set_layer ctx "serve.requests" (float_of_int v.Fleet.v_requests);
           set_layer ctx "serve.blocked" (float_of_int v.Fleet.v_blocked);
           set_layer ctx "serve.released" (float_of_int v.Fleet.v_released);
           check ctx (v.Fleet.v_digest = expected) "fleet digest differs from the solo cells'"
           && check ctx (v.Fleet.v_requests = users * requests_per_user) "request count"));
    cpu := !cpu +. (Sys.time () -. cpu0)
  done;
  ctx.work <- float_of_int (List.length ctx.ops * users * requests_per_user);
  ctx.work_secs <- List.fold_left (fun acc s -> acc +. s.secs) 0.0 ctx.ops;
  ctx.work_raw <- List.fold_left (fun acc s -> acc +. s.raw) 0.0 ctx.ops;
  set_layer ctx "fleet.cpu_s" (!cpu /. float_of_int (List.length ctx.ops))

(* One benign cell (cell 0) taken apart: build and run, monitored and
   unmonitored; and the whole fleet again on one domain.  The rig's
   crypto and core calls are probed in scenario-sweep's traced run, on
   the CPU clock: on this workload's wall clock a one-second probe is
   too noisy to net keygen out of a deployment build. *)
let probes ctx st =
  let config = Fleet.cell_config st.fleet ~cell_id:0 in
  (* The cell calls run on this domain alone, so they are timed in
     process CPU seconds: the differences taken are smaller than the
     wall clock's noise.  Taken in triples, build next to both runs, and
     the medians reported. *)
  let cpu_probe ~layer name f =
    let t0 = Sys.time () in
    let v = Span.with_ ~layer name f in
    (v, Sys.time () -. t0)
  in
  let bare_config = { config with Cell.monitored = false } in
  let triples =
    List.init 3 (fun _ ->
        let _, create_s =
          cpu_probe ~layer:"fleet" "Cell.create" (fun () -> Cell.create config)
        in
        let _, run_s = cpu_probe ~layer:"fleet" "Cell.run" (fun () -> Cell.run config) in
        let _, bare_create_s =
          cpu_probe ~layer:"serve" "Cell.create:unmonitored" (fun () ->
              Cell.create bare_config)
        in
        let bare, bare_s =
          cpu_probe ~layer:"serve" "Cell.run:unmonitored" (fun () -> Cell.run bare_config)
        in
        ( create_s,
          run_s,
          run_s -. bare_s,
          (bare_s -. bare_create_s) /. float_of_int (max 1 bare.Cell.r_requests) ))
  in
  let med f = median (List.map f triples) in
  let one = create ~domains:1 ctx.seed in
  let _, c = probe ~layer:"fleet" "Fleet.run:1-domain" (fun () -> Fleet.run one) in
  let one_s = c.secs in
  set_layer ctx "fleet.cell_create_s" (med (fun (c, _, _, _) -> c));
  set_layer ctx "fleet.cell_run_s" (med (fun (_, r, _, _) -> r));
  set_layer ctx "obs.monitor_s" (med (fun (_, _, m, _) -> m));
  set_layer ctx "serve.request_s" (med (fun (_, _, _, q) -> q));
  set_layer ctx "fleet.pass_s_1domain" one_s

let per_layer ctx st (_ : (Span.t * float) list) =
  let pass = median (List.map (fun s -> s.secs) ctx.ops) in
  set_layer ctx "fleet.parallel_efficiency"
    (Hashtbl.find ctx.layer "fleet.pass_s_1domain"
    /. (float_of_int (Fleet.domains st.fleet) *. pass))
