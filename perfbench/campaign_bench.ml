(* The fuzz-campaign workload: Fuzz.Campaign.run at jobs = 1 over the
   transform set of bench/campaign.ml — thousands of tiny histories,
   where generation, recording, checking, shrinking and corpus writes do
   the work.

   The traced pass re-runs Campaign.run_cell's sequence from public
   functions (Gen.gen -> Workload.run -> check -> Shrink.minimize ->
   Corpus.save) with a span around each call, and must reach exactly the
   counts Campaign.run reports. *)

module C = Fuzz.Campaign
module G = Fuzz.Gen
module W = Harness.Workload

type t = { name : string; cells : int  (** per transform *) }

let campaign = { name = "fuzz-campaign"; cells = 10_000 }
let tiny w = { w with cells = 150 }

let transforms =
  Flit.Registry.[ noflush; alg2_mstore; weakest_lflush; buffered ]

(* the broken control: its violations are findings, not failures *)
let control = Flit.Registry.noflush

let offered w = w.cells * List.length transforms

(** Set-up: the profiles and an empty corpus directory. *)
let setup ~dir =
  Bench_util.rm_rf dir;
  Sys.mkdir dir 0o755;
  List.map G.profile_of_transform transforms

let run_campaign w ~dir ~seed profiles =
  List.map (fun p -> C.run ~jobs:1 ~corpus_dir:dir p ~cells:w.cells ~seed ()) profiles

let summary_sig sums = String.concat "; " (List.map Bench_util.campaign_sig sums)

let check_summaries (sums : C.summary list) =
  List.concat_map
    (fun (s : C.summary) ->
      let v = List.length s.C.violations in
      let control = s.C.transform_name = Flit.Flit_intf.name control in
      if control && v = 0 then
        [ s.C.transform_name ^ ": the broken control found no violation" ]
      else if (not control) && v > 0 then
        [ Printf.sprintf "%s: %d violations inside its envelope" s.C.transform_name v ]
      else [])
    sums

let undecided sums = List.fold_left (fun a (s : C.summary) -> a + s.C.skipped) 0 sums

let completed_ops (h : Lincheck.History.t) =
  List.length
    (List.filter (fun o -> o.Lincheck.History.ret <> None) (Lincheck.History.ops h))

(* The cell's config, exactly as Campaign.run_cell draws it. *)
let gen_cell p ~seed i = G.gen p (Random.State.make [| seed; i |])

(* ------------------------------------------------------------------ *)
(* Untraced pass                                                        *)

let min_reps = 5

let measure w ~seed ~seconds ~dir =
  let deadline = Ledger.now () +. seconds in
  Ledger.start_calibration ();
  (* Each timed call is scaled by the machine speed measured around it;
     raw times are kept for the notes.  Only the first repeat's summaries
     are kept, so the heap does not grow with the number of repeats. *)
  let rep () =
    let profiles, setup_raw, setup_s = Ledger.scaled (fun () -> setup ~dir) in
    let sums, run_raw, run_s =
      Ledger.scaled (fun () -> run_campaign w ~dir ~seed profiles)
    in
    ((setup_raw, setup_s), (run_raw, run_s), sums)
  in
  let s0, r0, sums = rep () in
  let sig0 = summary_sig sums in
  let rec loop times same n =
    if n >= min_reps && Ledger.now () >= deadline then (List.rev times, same)
    else
      let s, r, sums = rep () in
      loop ((s, r) :: times) (same && summary_sig sums = sig0) (n + 1)
  in
  let reps, same = loop [ (s0, r0) ] true 1 in
  let peak = Ledger.peak_heap_mb () in
  (* simulated metrics: every cell again through Gen.gen and
     Workload.run, whose traffic must add up to the campaign's *)
  let profiles = setup ~dir in
  let ops = ref 0 and cell_cycles = ref [] in
  let total = Fabric.Stats.create () in
  List.iter
    (fun p ->
      for i = 0 to w.cells - 1 do
        let r = W.run (gen_cell p ~seed i) in
        cell_cycles := r.W.stats.Fabric.Stats.cycles :: !cell_cycles;
        ops := !ops + completed_ops r.W.history;
        Fabric.Stats.add ~into:total r.W.stats
      done)
    profiles;
  let cyc = Array.of_list !cell_cycles in
  Array.sort compare cyc;
  let campaign_total = Fabric.Stats.create () in
  List.iter (fun (s : C.summary) -> Fabric.Stats.add ~into:campaign_total s.C.stats) sums;
  Bench_util.rm_rf dir;
  let errors =
    (if same then []
     else [ w.name ^ ": campaign summaries differ between repeats" ])
    @ (if Fabric.Stats.to_json total = Fabric.Stats.to_json campaign_total then []
       else [ w.name ^ ": replayed cells' traffic differs from the campaign's" ])
    @ check_summaries sums
  in
  let cells = offered w in
  let med f = Ledger.median (List.map f reps) in
  let run_raw = med (fun (_, r) -> fst r) and run_s = med (fun (_, r) -> snd r) in
  let setup_raw = med (fun (s, _) -> fst s) and setup_s = med (fun (s, _) -> snd s) in
  let viol = List.fold_left (fun a (s : C.summary) -> a + List.length s.C.violations) 0 sums in
  {
    Ledger.metrics =
      Ledger.
        [
          m "setup_s" "s" setup_s;
          m "items_per_s" "1/s" (float_of_int cells /. run_s);
          m "peak_heap_mb" "MiB" peak;
          m "sim_mean_cycles" "cycles"
            (float_of_int total.Fabric.Stats.cycles /. float_of_int cells);
          mi "sim_p50_cycles" "cycles" (Kv_bench.percentile cyc 0.5);
          mi "sim_p999_cycles" "cycles" (Kv_bench.percentile cyc 0.999);
          m "sim_ops_per_kcycle" "ops/kcycle"
            (float_of_int !ops *. 1000.0 /. float_of_int total.Fabric.Stats.cycles);
          m "completion_frac" "ratio"
            (float_of_int (cells - undecided sums) /. float_of_int cells);
        ];
    runs = List.length reps;
    errors;
    notes =
      [
        Printf.sprintf
          "cells_per_s = %d cells / median %.4f s of %d campaigns, scaled to the \
           reference machine (raw: median %.4f s, campaigns %s s; median speed \
           factor %.4f); set-up raw median %.6f s"
          cells run_s (List.length reps) run_raw
          (String.concat " " (List.map (fun (_, (r, _)) -> Printf.sprintf "%.3f" r) reps))
          (Ledger.speed_factor ()) setup_raw;
        Printf.sprintf "fail_frac = %.6f (%d undecided of %d cells); %d control \
                        violations are findings"
          (float_of_int (undecided sums) /. float_of_int cells)
          (undecided sums) cells viol;
        Printf.sprintf
          "simulated cycles per cell: n=%d, exact nearest-rank percentiles" (Array.length cyc);
        "summary: " ^ sig0;
      ];
    counts = "";
  }

(* ------------------------------------------------------------------ *)
(* Traced pass                                                          *)

let oracle_check p (c : W.config) (r : W.result) =
  (* Campaign.evaluate_run's oracle call, with the search size kept *)
  match p.G.oracle with
  | G.Durable ->
      let v = Lincheck.Durable.check (Harness.Objects.spec c.W.kind) r.W.history in
      let explored = v.Lincheck.Durable.outcome.Lincheck.Check.explored in
      (match v.Lincheck.Durable.skipped with
      | Some _ -> (`Skipped, explored)
      | None -> ((if v.Lincheck.Durable.durable then `Ok else `Violation), explored))
  | G.Buffered_cut -> (
      match Lincheck.Buffered.check (Harness.Objects.spec c.W.kind) r.W.history with
      | v -> ((if v.Lincheck.Buffered.buffered_durable then `Ok else `Violation), 0)
      | exception Invalid_argument _ -> (`Skipped, 0))

let tracer_capacity = 1 lsl 16

let traced w ~seed ~dir =
  let wl = w.name in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let span = Ledger.span in
  let profiles = span "campaign.setup" (fun () -> setup ~dir) in
  let sums = span "fuzz.campaign" (fun () -> run_campaign w ~dir ~seed profiles) in
  let profiles = span "campaign.setup" (fun () -> setup ~dir) in
  let cnt = Counting_flit.create () in
  let tr = Obs.Tracer.create ~capacity:tracer_capacity () in
  let run_words = ref 0.0 and explored = ref 0 and hist_ops = ref 0 in
  let switches = ref 0 and meta_faa = ref 0 and meta_read = ref 0 in
  let dropped = ref 0 and evals = ref 0 and map_reads = ref 0 and map_loads = ref 0 in
  let run_s = ref 0.0 and traced_s = ref 0.0 in
  let total = Fabric.Stats.create () in
  let per_transform =
    List.map
      (fun (p : G.profile) ->
        let ok = ref 0 and skipped = ref 0 and found = ref [] in
        let stats = Fabric.Stats.create () in
        for i = 0 to w.cells - 1 do
          let c = span "fuzz.gen" (fun () -> gen_cell p ~seed i) in
          let mw = Ledger.minor_words () in
          let r, t = Ledger.time (fun () -> span "workload.run" (fun () -> W.run c)) in
          run_words := !run_words +. (Ledger.minor_words () -. mw);
          run_s := !run_s +. t;
          Fabric.Stats.add ~into:stats r.W.stats;
          hist_ops := !hist_ops + List.length (Lincheck.History.ops r.W.history);
          (* the same cell traced and counted: identical traffic *)
          Obs.Tracer.clear tr;
          let reads0 = cnt.Counting_flit.read_ops
          and loads0 = cnt.Counting_flit.read_op_loads in
          let rt, t =
            Ledger.time (fun () ->
                span "workload.run.traced" (fun () ->
                    W.run ~tracer:tr
                      { c with W.transform = Counting_flit.wrap cnt c.W.transform }))
          in
          traced_s := !traced_s +. t;
          if Fabric.Stats.to_json rt.W.stats <> Fabric.Stats.to_json r.W.stats then
            fail "%s: traced cell %d of %s differs from the untraced run" wl i
              p.G.transform.Flit.Flit_intf.name;
          (match c.W.kind with
          | Harness.Objects.Map | Harness.Objects.Kv ->
              map_reads := !map_reads + cnt.Counting_flit.read_ops - reads0;
              map_loads := !map_loads + cnt.Counting_flit.read_op_loads - loads0
          | _ -> ());
          dropped := !dropped + Obs.Tracer.dropped tr;
          Obs.Tracer.iter
            (function Obs.Event.Switch _ -> incr switches | _ -> ())
            tr;
          meta_faa := !meta_faa + Kv_bench.meta tr Obs.Event.Meta_faa;
          meta_read := !meta_read + Kv_bench.meta tr Obs.Event.Meta_read;
          let status, nodes = span "lincheck.check" (fun () -> oracle_check p c r) in
          explored := !explored + nodes;
          match status with
          | `Ok -> incr ok
          | `Skipped -> incr skipped
          | `Violation ->
              let shrunk, verdict =
                span "fuzz.shrink" (fun () ->
                    let still_failing c' =
                      incr evals;
                      match C.evaluate p c' with `Violation _ -> true | _ -> false
                    in
                    let shrunk = Fuzz.Shrink.minimize ~still_failing c in
                    match C.evaluate p shrunk with
                    | `Violation v -> (shrunk, v)
                    | _ -> (shrunk, ""))
              in
              if verdict = "" then fail "%s: a shrunk config no longer fails" wl;
              found := (i, shrunk, verdict) :: !found
        done;
        Fabric.Stats.add ~into:total stats;
        (* corpus writes come after the cells, as in Campaign.run *)
        let paths =
          List.rev_map
            (fun (i, shrunk, verdict) ->
              span "fuzz.corpus" (fun () ->
                  fst
                    (Fuzz.Corpus.save ~dir shrunk
                       ~comment:
                         (Printf.sprintf "found by campaign seed=%d cell=%d" seed i
                         :: String.split_on_char '\n' verdict))))
            !found
        in
        Printf.sprintf "%s cells=%d ok=%d skipped=%d violations=%d stats=%s"
          (Flit.Flit_intf.name p.G.transform) w.cells !ok !skipped (List.length paths)
          (Fabric.Stats.to_json stats)
        , paths)
      profiles
  in
  Bench_util.rm_rf dir;
  if String.concat "; " (List.map fst per_transform) <> summary_sig sums then
    fail "%s: the public-function re-run differs from Campaign.run:\n  %s\n  %s" wl
      (String.concat "; " (List.map fst per_transform)) (summary_sig sums);
  if List.concat_map snd per_transform
     <> List.concat_map
          (fun (s : C.summary) -> List.map (fun v -> v.C.corpus_path) s.C.violations)
          sums
  then fail "%s: corpus files differ from Campaign.run's" wl;
  if !dropped > 0 then fail "%s: the trace ring dropped %d events" wl !dropped;
  List.iter (fun e -> fail "%s" e) (check_summaries sums);
  let cells = offered w in
  let viol = List.length (List.concat_map snd per_transform) in
  let per x = float_of_int x /. float_of_int cells in
  let per_v x = if viol = 0 then 0.0 else x /. float_of_int viol in
  let self = Ledger.self_time ~workload:wl in
  let k = cnt.Counting_flit.serving and kp = cnt.Counting_flit.preload in
  let pr = Kv_bench.prims total in
  let layer =
    Ledger.
      [
        m "sched.switches_per_item" "switches/item" (per !switches);
        m "sched.useful_ratio" "prims/switch"
          (float_of_int pr /. float_of_int (max 1 !switches));
        m "flit.shared_load_per_item" "calls/item"
          (per (k.Counting_flit.shared_loads + kp.Counting_flit.shared_loads));
        m "flit.shared_store_per_item" "calls/item"
          (per (k.Counting_flit.shared_stores + kp.Counting_flit.shared_stores));
        m "flit.cas_per_item" "calls/item" (per (k.Counting_flit.cas + kp.Counting_flit.cas));
        m "flit.private_per_item" "calls/item"
          (per (k.Counting_flit.private_ops + kp.Counting_flit.private_ops));
        m "flit.meta_faa_per_item" "ops/item" (per !meta_faa);
        m "flit.meta_read_per_item" "ops/item" (per !meta_read);
        m "hmap.loads_per_get" "loads/get"
          (float_of_int !map_loads /. float_of_int (max 1 !map_reads));
        m "fabric.prims_per_item" "prims/item" (per pr);
        m "fabric.remote_loads_per_item" "loads/item"
          (per (total.Fabric.Stats.loads_remote_cache + total.Fabric.Stats.loads_mem));
        m "fabric.flushes_per_item" "flushes/item" (per (Fabric.Stats.flushes total));
        m "fabric.evictions_per_item" "evictions/item" (per (Fabric.Stats.evictions total));
        mi "fabric.retries" "count" total.Fabric.Stats.retries;
        m "workload.run_s_per_cell" "s/cell" (self "workload.run" /. float_of_int cells);
        m "workload.minor_words_per_cell" "words/cell" (!run_words /. float_of_int cells);
        m "lincheck.check_s_per_cell" "s/cell" (self "lincheck.check" /. float_of_int cells);
        m "lincheck.explored_per_cell" "nodes/cell" (per !explored);
        m "lincheck.ops_per_history" "ops/history" (per !hist_ops);
        mi "lincheck.undecided" "count" (undecided sums);
        m "fuzz.gen_s_per_cell" "s/cell" (self "fuzz.gen" /. float_of_int cells);
        m "fuzz.shrink_s_per_violation" "s/violation" (per_v (self "fuzz.shrink"));
        m "fuzz.shrink_evals_per_violation" "evals/violation"
          (per_v (float_of_int !evals));
        m "fuzz.corpus_s_per_violation" "s/violation" (per_v (self "fuzz.corpus"));
        m "obs.trace_overhead" "ratio" (!traced_s /. !run_s);
        mi "obs.ring_dropped" "count" !dropped;
      ]
  in
  let counts =
    Printf.sprintf "%s switches=%d meta=%d/%d explored=%d ops=%d evals=%d reads=%d/%d flit=%d/%d/%d/%d"
      (String.concat "; " (List.map fst per_transform))
      !switches !meta_faa !meta_read !explored !hist_ops !evals !map_reads !map_loads
      k.Counting_flit.shared_loads k.Counting_flit.shared_stores k.Counting_flit.cas
      k.Counting_flit.private_ops
  in
  { Ledger.metrics = layer; runs = 1; errors = List.rev !errors; notes = []; counts }
