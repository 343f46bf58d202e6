(* The two serving workloads: Kv.serve under open-loop YCSB traffic.

   One run of a workload serves it under [trials] traffic seeds derived
   from the benchmark seed and merges the results: a single storm's
   outcome swings with where its crashes land, and the light workload's
   mean with how many requests arrive during the preload, so one trial
   per run would make the simulated metrics jump from seed to seed.

   The untraced pass times set-up and whole Kv.serve calls.  The
   simulated metrics come from the same configs served again with a
   tracer (identical results, checked), because Obs.Hist percentiles are
   bucket maxima: exact latencies come from the request spans.  The
   traced pass reports what happened inside the calls as counts. *)

module K = Harness.Kv
module T = Harness.Traffic
module R = Harness.Runcore

type t = {
  name : string;
  transform : Flit.Flit_intf.t;
  mix : string;  (** YCSB letter *)
  rate : float;  (** offered requests per 1000 simulated cycles *)
  replicas : int;
  sessions : int;
  ops : int;  (** per session *)
  keys : int;
  storm : int;  (** crash/restart cycles of machine 0 *)
  storm_gap : int;  (** scheduler steps between two crashes *)
  outage : int;  (** scheduler steps a crashed machine stays down *)
  trials : int;  (** traffic seeds per run *)
}

(* Light load: about a third of the ~0.13 ops/kcycle this configuration
   sustains, so servers mostly wait for arrivals. *)
let read_light =
  {
    name = "kv-read-light";
    transform = Flit.Registry.alg3'_weakest;
    mix = "b";
    rate = 0.05;
    replicas = 1;
    sessions = 64;
    ops = 200;
    keys = 1024;
    storm = 0;
    storm_gap = 0;
    outage = 0;
    trials = 4;
  }

(* Saturated: replicated alg2-mstore sustains ~0.07 ops/kcycle, so 0.5
   offers ~7x capacity. *)
let write_storm =
  {
    name = "kv-write-storm";
    transform = Flit.Registry.alg2_mstore;
    mix = "a";
    rate = 0.5;
    replicas = 2;
    sessions = 64;
    ops = 250;
    keys = 1024;
    storm = 5;
    storm_gap = 100_000;
    outage = 2_000;
    trials = 10;
  }

(** Small variants for the self-test. *)
let tiny w =
  { w with sessions = 16; ops = 24; keys = 64; storm = min w.storm 2;
    storm_gap = 3_000; outage = 400; trials = 2 }

let offered w = w.sessions * w.ops
let trial_seeds w ~seed = List.init w.trials (fun j -> (seed * w.trials) + j)

let config w ~seed ~crashes =
  let traffic =
    { T.default_spec with T.sessions = w.sessions; ops_per_session = w.ops;
      rate = w.rate; theta = 0.99; keyspace = w.keys;
      mix = T.mix_of_string w.mix; seed }
  in
  let base = K.default_serve_config ~transform:w.transform ~traffic in
  { base with K.replicas = w.replicas; env = { base.K.env with R.crashes } }

(* ------------------------------------------------------------------ *)
(* Set-up: fabric, Kv.create and the keyspace preload, rebuilt from     *)
(* public functions exactly as Kv.serve does it before spawning its     *)
(* servers (same fabric, same scheduler seed, one init fibre), so its   *)
(* step count, clock and traffic are those of serve's own preload —    *)
(* the traced pass checks this against serve's FliT calls.             *)

type preload = {
  steps : int;  (** scheduler decisions the preload took *)
  cycles : int;  (** simulated clock when it finished *)
  stats : Fabric.Stats.t;
}

let preload ?tracer ?(transform = Fun.id) (c : K.serve_config) =
  let fab = R.build_fabric ?tracer c.K.env in
  let flit = Flit.Flit_intf.instantiate (transform c.K.transform) fab in
  let sched = Runtime.Sched.create ~seed:((c.K.env.R.seed * 7919) + 1) fab in
  ignore
    (Runtime.Sched.spawn sched ~machine:c.K.env.R.home ~name:"init" (fun ctx ->
         let kv =
           K.create ctx ~pflag:c.K.pflag ~shards:c.K.shards ?buckets:c.K.buckets
             ~replicas:c.K.replicas ~deadline:c.K.deadline ~flit
             ~home:c.K.env.R.home ()
         in
         for k = 1 to c.K.traffic.T.keyspace do
           ignore (K.put kv ctx k k)
         done));
  let steps = Runtime.Sched.run sched in
  { steps; cycles = Fabric.cycles fab; stats = Fabric.Stats.copy (Fabric.stats fab) }

(* The storm's crashes are placed by scheduler step *after* the preload's
   last step: cxl0_kv --storm uses steps 150 + 450 i, which at 1024 keys
   all fall inside the preload, so its storm never meets a request.
   Every crash fells machine 0, home of shard 1 and backup of shards 0
   and 3; a restart is followed by a resync.  Rotating the crashes over
   the machines, as cxl0_kv does, leaves shards with no trusted replica
   (resyncs do not get past the write lock under saturation), and the
   run then serves too few requests for a p999. *)
let storm_crashes w ~seed ~preload_steps : R.crash_spec list =
  List.init w.storm (fun i ->
      let at = preload_steps + ((i + 1) * w.storm_gap) + (seed mod 13) in
      { R.at; machine = 0; restart_at = at + w.outage; recovery_threads = 0;
        recovery_ops = 0 })

(* Set-up of one trial: the crash-free config, its preload (timed by
   [time]), and the config with the storm placed after that preload. *)
let setup ~time w ~seed =
  let c0 = config w ~seed ~crashes:[] in
  let p, t = time (fun () -> preload c0) in
  (c0, config w ~seed ~crashes:(storm_crashes w ~seed ~preload_steps:p.steps), p, t)

(* ------------------------------------------------------------------ *)
(* Results                                                              *)

let served (r : K.serve_result) = Array.fold_left ( + ) 0 r.K.served

(** Everything simulated about a run, for run-to-run comparison. *)
let signature (r : K.serve_result) =
  Printf.sprintf
    "served=%d/%d/%d faulted=%d timed_out=%d dropped=%d failovers=%d \
     rejoins=%d cycles=%d read:[%s] update:[%s] insert:[%s] stats=%s"
    r.K.served.(0) r.K.served.(1) r.K.served.(2) r.K.faulted r.K.timed_out
    r.K.dropped r.K.failovers r.K.rejoins r.K.cycles
    (Bench_util.hist_sig r.K.latencies.(0))
    (Bench_util.hist_sig r.K.latencies.(1))
    (Bench_util.hist_sig r.K.latencies.(2))
    (Fabric.Stats.to_json r.K.stats)

let lost (r : K.serve_result) = r.K.faulted + r.K.timed_out + r.K.dropped

(** Correctness checks on one result; each failure is a message. *)
let check_result w (r : K.serve_result) =
  let off = offered w in
  (if served r + lost r <> off || r.K.dropped < 0 then
     [ Printf.sprintf "%s: served %d + faulted %d + timed_out %d + dropped %d <> offered %d"
         w.name (served r) r.K.faulted r.K.timed_out r.K.dropped off ]
   else [])
  @
  if w.storm = 0 && lost r > 0 then
    [ Printf.sprintf "%s: %d requests lost with no crash planned" w.name (lost r) ]
  else []

(* ------------------------------------------------------------------ *)
(* Reading the trace                                                    *)

(* A run emits millions of events (mostly scheduler switches), far more
   than a ring should hold.  The reader consumes the ring while the run
   goes on — polled from the counting FliT wrapper, it reads whenever
   half the ring is new — and keeps only what the benchmark needs.  An
   event overwritten before it was read counts as [lost_events]; spans
   and switch counts are reported only when nothing was. *)
let ring_capacity = 1 lsl 17

type reader = {
  tr : Obs.Tracer.t;
  mutable seen : int;
  mutable lost_events : int;
  mutable switches : int;
  mutable crashes : int list;  (** crash cycles *)
  mutable first_dispatch : int;
  mutable marks : Obs.Event.t list;  (** span marks, newest first *)
}

let reader () =
  { tr = Obs.Tracer.create ~capacity:ring_capacity (); seen = 0; lost_events = 0;
    switches = 0; crashes = []; first_dispatch = max_int; marks = [] }

let read r =
  let fresh = Obs.Tracer.emitted r.tr - r.seen in
  let len = Obs.Tracer.length r.tr in
  if fresh > len then r.lost_events <- r.lost_events + fresh - len;
  let skip = len - min fresh len and i = ref 0 in
  Obs.Tracer.iter
    (fun e ->
      if !i >= skip then begin
        match e with
        | Obs.Event.Switch _ -> r.switches <- r.switches + 1
        | Obs.Event.Crash { cycle; _ } -> r.crashes <- cycle :: r.crashes
        | Obs.Event.Mark { phase; cycle; _ } ->
            if phase = Obs.Event.P_dispatch && cycle < r.first_dispatch then
              r.first_dispatch <- cycle;
            r.marks <- e :: r.marks
        | _ -> ()
      end;
      incr i)
    r.tr;
  r.seen <- Obs.Tracer.emitted r.tr

let poll r = if Obs.Tracer.emitted r.tr - r.seen >= ring_capacity / 2 then read r

(* Obs.Span assembles spans from a tracer: replay the kept marks into
   one just large enough. *)
let spans r =
  let t = Obs.Tracer.create ~capacity:(max 1 (List.length r.marks)) () in
  List.iter (Obs.Tracer.emit t) (List.rev r.marks);
  Obs.Span.assemble t

let meta (tr : Obs.Tracer.t) prim =
  Obs.Hist.count (Obs.Report.hist (Obs.Tracer.report tr) prim)

(** [c] served again with a tracer and the counting wrapper. *)
let serve_traced ?(cnt = Counting_flit.create ()) (c : K.serve_config) =
  let rd = reader () in
  let r =
    K.serve ~tracer:rd.tr ~jobs:1
      { c with
        K.transform = Counting_flit.wrap ~on_call:(fun () -> poll rd) cnt c.K.transform }
  in
  read rd;
  (r, rd)

let acked_spans rd =
  List.filter (fun s -> Obs.Span.outcome s = Obs.Span.Acked) (spans rd)

(* ------------------------------------------------------------------ *)
(* Untraced pass                                                        *)

let min_passes = 3

(* nearest-rank percentile of a sorted array *)
let percentile a p =
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let measure w ~seed ~seconds =
  let deadline = Ledger.now () +. seconds in
  Ledger.start_calibration ();
  (* every timed call is scaled by the machine speed measured around it;
     raw times are kept for the notes *)
  let scaled f =
    let r, raw, t = Ledger.scaled f in
    (r, (raw, t))
  in
  let setups = List.map (fun s -> setup ~time:scaled w ~seed:s) (trial_seeds w ~seed) in
  let configs = List.map (fun (_, c, _, _) -> c) setups in
  let setup_times = ref (List.map (fun (_, _, _, t) -> t) setups) in
  let preload_same = ref true in
  (* A pass serves every trial, then sets every trial up again, so
     set-up is timed throughout the run.  Only the first pass's results
     are kept, so the heap does not grow with the number of passes. *)
  let pass () =
    let timed = List.map (fun c -> scaled (fun () -> K.serve ~jobs:1 c)) configs in
    List.iter
      (fun (c0, _, p, _) ->
        let q, ts = scaled (fun () -> preload c0) in
        setup_times := ts :: !setup_times;
        if q.steps <> p.steps || q.cycles <> p.cycles then preload_same := false)
      setups;
    let sum f = List.fold_left (fun a (_, t) -> a +. f t) 0.0 timed in
    (List.map fst timed, (sum fst, sum snd))
  in
  let results, t0 = pass () in
  let sigs = List.map signature results in
  let rec loop times same n =
    if n >= min_passes && Ledger.now () >= deadline then (List.rev times, same)
    else
      let rs, t = pass () in
      loop (t :: times) (same && List.map signature rs = sigs) (n + 1)
  in
  let times, same = loop [ t0 ] true 1 in
  let peak = Ledger.peak_heap_mb () in
  (* the same configs traced, one at a time: exact latencies from the
     request spans *)
  let traced =
    List.map
      (fun c ->
        let r, rd = serve_traced c in
        (signature r, rd.lost_events, List.map Obs.Span.latency (acked_spans rd)))
      configs
  in
  let lat = Array.of_list (List.concat_map (fun (_, _, l) -> l) traced) in
  Array.sort compare lat;
  let hist = Obs.Hist.create () in
  List.iter (fun r -> Array.iter (fun h -> Obs.Hist.merge ~into:hist h) r.K.latencies) results;
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  let total_served = sum served and cycles = sum (fun r -> r.K.cycles) in
  let total_offered = offered w * w.trials in
  let exact_total = Array.fold_left ( + ) 0 lat in
  let errors =
    (if !preload_same then []
     else [ w.name ^ ": a preload differs between repeats" ])
    @ (if same then []
       else [ w.name ^ ": Kv.serve results differ between passes" ])
    @ (if List.map (fun (sg, _, _) -> sg) traced = sigs then []
       else [ w.name ^ ": traced Kv.serve results differ from untraced ones" ])
    @ List.concat_map (check_result w) results
    @ (if List.exists (fun (_, lost, _) -> lost > 0) traced then
         [ w.name ^ ": trace events were overwritten unread" ]
       else [])
    @ (if Array.length lat = Obs.Hist.count hist && exact_total = Obs.Hist.total hist
       then []
       else [ w.name ^ ": span latencies disagree with the latency histograms" ])
  in
  let pass_raw = Ledger.median (List.map fst times)
  and pass_s = Ledger.median (List.map snd times) in
  let setup_raw = Ledger.median (List.map fst !setup_times)
  and setup_s = Ledger.median (List.map snd !setup_times) in
  let n = Array.length lat in
  let beyond p = n - int_of_float (Float.ceil (p *. float_of_int n)) in
  (* the p999 needs ten samples beyond it (the self-test's tiny runs
     are exempt) *)
  let errors =
    if offered w >= 10_000 && beyond 0.999 < 10 then
      errors @ [ Printf.sprintf "%s: %d latency samples leave %d beyond p999" w.name n
                   (beyond 0.999) ]
    else errors
  in
  {
    Ledger.metrics =
      Ledger.
        [
          m "setup_s" "s" setup_s;
          m "items_per_s" "1/s" (float_of_int total_offered /. pass_s);
          m "peak_heap_mb" "MiB" peak;
          m "sim_mean_cycles" "cycles" (float_of_int exact_total /. float_of_int n);
          mi "sim_p50_cycles" "cycles" (percentile lat 0.5);
          mi "sim_p999_cycles" "cycles" (percentile lat 0.999);
          m "sim_ops_per_kcycle" "ops/kcycle"
            (float_of_int total_served *. 1000.0 /. float_of_int cycles);
          m "completion_frac" "ratio"
            (float_of_int total_served /. float_of_int total_offered);
        ];
    runs = List.length times;
    errors;
    notes =
      [
        Printf.sprintf "trials: %d traffic seeds (%s), %d requests each"
          w.trials
          (String.concat "," (List.map string_of_int (trial_seeds w ~seed)))
          (offered w);
        Printf.sprintf
          "req_per_s = %d offered / median %.4f s of %d passes of Kv.serve calls, \
           scaled to the reference machine (raw: median %.4f s, passes %s s; \
           median speed factor %.4f); set-up raw median %.6f s"
          total_offered pass_s (List.length times) pass_raw
          (String.concat " " (List.map (fun (r, _) -> Printf.sprintf "%.3f" r) times))
          (Ledger.speed_factor ()) setup_raw;
        Printf.sprintf
          "fail_frac = %.6f (faulted %d + timed_out %d + dropped %d of %d); failovers %d, \
           rejoins %d"
          (1.0 -. (float_of_int total_served /. float_of_int total_offered))
          (sum (fun r -> r.K.faulted)) (sum (fun r -> r.K.timed_out))
          (sum (fun r -> r.K.dropped)) total_offered (sum (fun r -> r.K.failovers))
          (sum (fun r -> r.K.rejoins));
        Printf.sprintf
          "latency samples n=%d, %d beyond p999; exact nearest-rank percentiles \
           (Obs.Hist bucket maxima: p50=%d p999=%d)"
          n (beyond 0.999) (Obs.Hist.percentile hist 0.5) (Obs.Hist.percentile hist 0.999);
        Printf.sprintf "preload: %s cycles (requests arriving before it ends carry it in \
                        their latency)"
          (String.concat "," (List.map (fun (_, _, p, _) -> string_of_int p.cycles) setups));
      ];
    counts = "";
  }

(* ------------------------------------------------------------------ *)
(* Traced pass                                                          *)

let prims (s : Fabric.Stats.t) =
  Fabric.Stats.loads s + Fabric.Stats.stores s + Fabric.Stats.flushes s
  + s.Fabric.Stats.faas + s.Fabric.Stats.cass

let traced w ~seed =
  let wl = w.name in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let span = Ledger.span in
  let off = offered w * w.trials in
  let per x = float_of_int x /. float_of_int off in
  let pre_cnt = Counting_flit.create () and cnt = Counting_flit.create () in
  let traffic_words = ref 0.0 and serve_words = ref 0.0 in
  let serve_s = ref 0.0 and traced_s = ref 0.0 and lost_events = ref 0 in
  let switches = ref 0 and meta_faa = ref 0 and meta_read = ref 0 in
  let preload_cycles = ref 0 and n_acked = ref 0 in
  let comp = Array.make Obs.Span.n_components 0 in
  let st = Fabric.Stats.create () in
  let results = ref [] and digests = ref [] in
  List.iter
    (fun seed ->
      let _, c, p, _ = span "kv.setup" (fun () -> setup ~time:Ledger.time w ~seed) in
      preload_cycles := !preload_cycles + p.cycles;
      (* the preload again, traced and counted: the baseline that splits
         serve's totals into preload and serving *)
      let pre = reader () in
      let before = pre_cnt.Counting_flit.preload.Counting_flit.shared_loads in
      let p' =
        span "kv.preload.traced" (fun () ->
            preload ~tracer:pre.tr
              ~transform:(Counting_flit.wrap ~on_call:(fun () -> poll pre) pre_cnt)
              (config w ~seed ~crashes:[]))
      in
      read pre;
      if p'.steps <> p.steps || p'.cycles <> p.cycles then
        fail "%s: traced preload of seed %d differs from the untraced one" wl seed;
      let mw = Ledger.minor_words () in
      span "traffic.stream" (fun () -> Seq.iter ignore (T.stream c.K.traffic));
      traffic_words := !traffic_words +. (Ledger.minor_words () -. mw);
      let mw = Ledger.minor_words () in
      let r, t = Ledger.time (fun () -> span "kv.serve" (fun () -> K.serve ~jobs:1 c)) in
      serve_words := !serve_words +. (Ledger.minor_words () -. mw);
      serve_s := !serve_s +. t;
      let preload_loads = cnt.Counting_flit.preload.Counting_flit.shared_loads in
      let (rt, rd), t =
        Ledger.time (fun () -> span "kv.serve.traced" (fun () -> serve_traced ~cnt c))
      in
      traced_s := !traced_s +. t;
      if signature rt <> signature r then
        fail "%s: traced+counted Kv.serve of seed %d differs from the untraced call" wl seed;
      List.iter (fail "%s") (check_result w r);
      (* serve's preload must be the set-up's, call for call *)
      if cnt.Counting_flit.preload.Counting_flit.shared_loads - preload_loads
         <> pre_cnt.Counting_flit.preload.Counting_flit.shared_loads - before
      then fail "%s: serve's preload FliT calls differ from set-up's (seed %d)" wl seed;
      lost_events := !lost_events + rd.lost_events + pre.lost_events;
      let crashes = List.rev rd.crashes in
      if List.length crashes <> w.storm then
        fail "%s: %d crashes planned, %d happened" wl w.storm (List.length crashes);
      List.iter
        (fun cy ->
          if cy < rd.first_dispatch then
            fail "%s: crash at cycle %d precedes the first dispatch (cycle %d)" wl cy
              rd.first_dispatch)
        crashes;
      if rd.first_dispatch < p.cycles then
        fail "%s: first dispatch (cycle %d) precedes the preload's end (cycle %d)" wl
          rd.first_dispatch p.cycles;
      (* serving phase = whole serve minus its (identical) preload *)
      Fabric.Stats.add ~into:st (Fabric.Stats.diff r.K.stats p.stats);
      switches := !switches + rd.switches - pre.switches;
      meta_faa := !meta_faa + meta rd.tr Obs.Event.Meta_faa - meta pre.tr Obs.Event.Meta_faa;
      meta_read :=
        !meta_read + meta rd.tr Obs.Event.Meta_read - meta pre.tr Obs.Event.Meta_read;
      let sp = spans rd in
      let acked = List.filter (fun s -> Obs.Span.outcome s = Obs.Span.Acked) sp in
      List.iter
        (fun s -> Array.iteri (fun i v -> comp.(i) <- comp.(i) + v) (Obs.Span.components s))
        acked;
      n_acked := !n_acked + List.length acked;
      if List.length acked <> served r then
        fail "%s: %d acked spans for %d served requests" wl (List.length acked) (served r);
      results := r :: !results;
      digests := Obs.Span.digest sp :: !digests)
    (trial_seeds w ~seed);
  if !lost_events > 0 then
    fail "%s: %d trace events were overwritten unread; spans and switch counts are \
          incomplete" wl !lost_events;
  let sum f = List.fold_left (fun a r -> a + f r) 0 !results in
  let comp_mean c =
    float_of_int comp.(Obs.Span.component_index c) /. float_of_int (max 1 !n_acked)
  in
  let serve_prims = prims st and sv = cnt.Counting_flit.serving in
  let self = Ledger.self_time ~workload:wl in
  let layer =
    Ledger.
      [
        m "traffic.s_per_kreq" "s/kreq" (self "traffic.stream" *. 1000.0 /. float_of_int off);
        m "traffic.minor_words_per_req" "words/req" (!traffic_words /. float_of_int off);
        m "kv.preload_s_per_key" "s/key"
          (self "kv.setup" /. float_of_int (w.trials * w.keys));
        m "kv.preload_cycles" "cycles" (float_of_int !preload_cycles /. float_of_int w.trials);
        m "kv.minor_words_per_req" "words/req" (!serve_words /. float_of_int off);
        mi "kv.timed_out" "count" (sum (fun r -> r.K.timed_out));
        mi "kv.dropped" "count" (sum (fun r -> r.K.dropped));
        mi "kv.faulted" "count" (sum (fun r -> r.K.faulted));
        mi "kv.failovers" "count" (sum (fun r -> r.K.failovers));
        mi "kv.rejoins" "count" (sum (fun r -> r.K.rejoins));
        m "kv.queue_cycles" "cycles/req" (comp_mean Obs.Span.Queue);
        m "kv.service_cycles" "cycles/req" (comp_mean Obs.Span.Service);
        m "kv.replication_cycles" "cycles/req" (comp_mean Obs.Span.Replication);
        m "kv.retry_cycles" "cycles/req" (comp_mean Obs.Span.Retry);
        m "kv.failover_wait_cycles" "cycles/req" (comp_mean Obs.Span.Failover_wait);
        m "sched.switches_per_item" "switches/item" (per !switches);
        m "sched.useful_ratio" "prims/switch"
          (float_of_int serve_prims /. float_of_int (max 1 !switches));
        m "flit.shared_load_per_item" "calls/item" (per sv.Counting_flit.shared_loads);
        m "flit.shared_store_per_item" "calls/item" (per sv.Counting_flit.shared_stores);
        m "flit.cas_per_item" "calls/item" (per sv.Counting_flit.cas);
        m "flit.private_per_item" "calls/item" (per sv.Counting_flit.private_ops);
        m "flit.meta_faa_per_item" "ops/item" (per !meta_faa);
        m "flit.meta_read_per_item" "ops/item" (per !meta_read);
        m "hmap.loads_per_get" "loads/get"
          (float_of_int cnt.Counting_flit.read_op_loads
          /. float_of_int (max 1 cnt.Counting_flit.read_ops));
        m "fabric.prims_per_item" "prims/item" (per serve_prims);
        m "fabric.remote_loads_per_item" "loads/item"
          (per (st.Fabric.Stats.loads_remote_cache + st.Fabric.Stats.loads_mem));
        m "fabric.flushes_per_item" "flushes/item" (per (Fabric.Stats.flushes st));
        m "fabric.evictions_per_item" "evictions/item" (per (Fabric.Stats.evictions st));
        mi "fabric.retries" "count" st.Fabric.Stats.retries;
        m "obs.trace_overhead" "ratio" (!traced_s /. !serve_s);
        mi "obs.ring_dropped" "count" !lost_events;
      ]
  in
  let counts =
    String.concat " "
      (List.rev_map signature !results
      @ List.rev !digests
      @ [
          Printf.sprintf "switches=%d meta=%d/%d reads=%d/%d flit=%d/%d/%d/%d" !switches
            !meta_faa !meta_read cnt.Counting_flit.read_ops cnt.Counting_flit.read_op_loads
            sv.Counting_flit.shared_loads sv.Counting_flit.shared_stores sv.Counting_flit.cas
            sv.Counting_flit.private_ops;
        ])
  in
  { Ledger.metrics = layer; runs = 1; errors = List.rev !errors; notes = []; counts }
