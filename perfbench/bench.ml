(* The repository's benchmark: three workloads on both clocks.

     dune exec --root . perfbench/bench.exe -- --workload kv-read-light \
       --seed 1 --seconds 10 --trace 0
     dune exec --root . perfbench/bench.exe -- --workload all --seed 1 \
       --seconds 10 --trace 1
     dune exec --root . perfbench/bench.exe -- --self-test

   --trace 0 times untraced calls and prints the end-to-end metrics;
   --trace 1 runs the traced pass and prints the per-layer metrics, each
   layer's host self time, and writes the spans as Chrome/Perfetto JSON
   under --out.  Host-time metrics are medians of repeated calls; the
   simulated metrics are deterministic in the seed.  The last line of
   the output is one JSON object; the exit code is 1 when any
   correctness check fails.  Run from the repository root. *)

let workloads = [ "kv-read-light"; "kv-write-storm"; "fuzz-campaign" ]

let kv_of = function
  | "kv-read-light" -> Some Kv_bench.read_light
  | "kv-write-storm" -> Some Kv_bench.write_storm
  | _ -> None

(* Metric names and units, in BENCHMARK.json order.  A layer that a
   workload does not exercise reports 0. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("items_per_s", "1/s");
    ("peak_heap_mb", "MiB");
    ("sim_mean_cycles", "cycles");
    ("sim_p50_cycles", "cycles");
    ("sim_p999_cycles", "cycles");
    ("sim_ops_per_kcycle", "ops/kcycle");
    ("completion_frac", "ratio");
  ]

let per_layer =
  [
    ("traffic.s_per_kreq", "s/kreq");
    ("traffic.minor_words_per_req", "words/req");
    ("kv.preload_s_per_key", "s/key");
    ("kv.preload_cycles", "cycles");
    ("kv.minor_words_per_req", "words/req");
    ("kv.timed_out", "count");
    ("kv.dropped", "count");
    ("kv.faulted", "count");
    ("kv.failovers", "count");
    ("kv.rejoins", "count");
    ("kv.queue_cycles", "cycles/req");
    ("kv.service_cycles", "cycles/req");
    ("kv.replication_cycles", "cycles/req");
    ("kv.retry_cycles", "cycles/req");
    ("kv.failover_wait_cycles", "cycles/req");
    ("sched.switches_per_item", "switches/item");
    ("sched.useful_ratio", "prims/switch");
    ("flit.shared_load_per_item", "calls/item");
    ("flit.shared_store_per_item", "calls/item");
    ("flit.cas_per_item", "calls/item");
    ("flit.private_per_item", "calls/item");
    ("flit.meta_faa_per_item", "ops/item");
    ("flit.meta_read_per_item", "ops/item");
    ("hmap.loads_per_get", "loads/get");
    ("fabric.prims_per_item", "prims/item");
    ("fabric.remote_loads_per_item", "loads/item");
    ("fabric.flushes_per_item", "flushes/item");
    ("fabric.evictions_per_item", "evictions/item");
    ("fabric.retries", "count");
    ("workload.run_s_per_cell", "s/cell");
    ("workload.minor_words_per_cell", "words/cell");
    ("lincheck.check_s_per_cell", "s/cell");
    ("lincheck.explored_per_cell", "nodes/cell");
    ("lincheck.ops_per_history", "ops/history");
    ("lincheck.undecided", "count");
    ("fuzz.gen_s_per_cell", "s/cell");
    ("fuzz.shrink_s_per_violation", "s/violation");
    ("fuzz.shrink_evals_per_violation", "evals/violation");
    ("fuzz.corpus_s_per_violation", "s/violation");
    ("obs.trace_overhead", "ratio");
    ("obs.ring_dropped", "count");
  ]

(* Put a workload's rows in canonical order; a row that is missing from
   the canonical list, has another unit or is not finite is an error. *)
let conform ~canonical (rows : Ledger.metric list) =
  let errors =
    List.filter_map
      (fun (r : Ledger.metric) ->
        match List.assoc_opt r.Ledger.name canonical with
        | None -> Some ("unknown metric " ^ r.Ledger.name)
        | Some u when u <> r.Ledger.unit_ ->
            Some (Printf.sprintf "metric %s: unit %s, expected %s" r.Ledger.name r.Ledger.unit_ u)
        | Some _ when not (Float.is_finite r.Ledger.value) ->
            Some ("metric " ^ r.Ledger.name ^ " is not finite")
        | Some _ -> None)
      rows
  in
  let ordered =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun (r : Ledger.metric) -> r.Ledger.name = name) rows with
        | Some r -> r
        | None -> Ledger.m name unit_ 0.0)
      canonical
  in
  (ordered, errors)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Ledger.metric list;
}

let corpus_dir out name = Filename.concat out ("corpus-" ^ name)

(* One pass over a workload: timed (untraced) or traced. *)
let pass ?(tiny = false) name ~seed ~seconds ~trace ~out =
  Ledger.current_workload := name;
  match kv_of name with
  | Some w ->
      let w = if tiny then Kv_bench.tiny w else w in
      if trace then Kv_bench.traced w ~seed else Kv_bench.measure w ~seed ~seconds
  | None ->
      let w = Campaign_bench.campaign in
      let w = if tiny then Campaign_bench.tiny w else w in
      let dir = corpus_dir out name in
      if trace then Campaign_bench.traced w ~seed ~dir
      else Campaign_bench.measure w ~seed ~seconds ~dir

let run_one name ~seed ~seconds ~trace ~out =
  let r = pass name ~seed ~seconds ~trace ~out in
  let canonical = if trace then per_layer else end_to_end in
  let metrics, unit_errors = conform ~canonical r.Ledger.metrics in
  let errors = r.Ledger.errors @ unit_errors in
  Ledger.print_table
    ~title:
      (Printf.sprintf "%s seed=%d %s" name seed
         (if trace then "per-layer (traced pass)" else "end-to-end (untraced)"))
    metrics;
  List.iter (Printf.printf "  note: %s\n") r.Ledger.notes;
  List.iter (Printf.printf "  CHECK FAILED: %s\n") errors;
  if trace then begin
    Printf.printf "  host self time per layer span (span minus its children):\n";
    List.iter
      (fun (w, span, t, n) ->
        if w = name then Printf.printf "    %-22s %12.6f s  over %d spans\n" span t n)
      (Ledger.self_times (Ledger.spans ()))
  end;
  {
    correct = errors = [];
    attempted = r.Ledger.runs;
    failed = min r.Ledger.runs (List.length errors);
    metrics;
  }

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* ------------------------------------------------------------------ *)
(* Self-test: each workload at a tiny size, run twice, must give        *)
(* identical simulated metrics and per-layer counts and pass every      *)
(* check — on seed 1 and on seed 97, which was not used while the       *)
(* benchmark was built.                                                 *)

let self_test ~out =
  let failures = ref 0 in
  let once name seed =
    let m = pass ~tiny:true name ~seed ~seconds:0.0 ~trace:false ~out in
    let t = pass ~tiny:true name ~seed ~seconds:0.0 ~trace:true ~out in
    let simulated =
      List.filter_map
        (fun (x : Ledger.metric) ->
          if String.starts_with ~prefix:"sim_" x.Ledger.name
             || x.Ledger.name = "completion_frac"
          then Some (x.Ledger.name ^ "=" ^ Ledger.number x.Ledger.value)
          else None)
        m.Ledger.metrics
    in
    (String.concat " " (simulated @ [ t.Ledger.counts ]), m.Ledger.errors @ t.Ledger.errors)
  in
  List.iter
    (fun seed ->
      List.iter
        (fun name ->
          let a, ea = once name seed in
          let b, eb = once name seed in
          let errs = ea @ eb @ if a = b then [] else [ "runs differ:\n    " ^ a ^ "\n    " ^ b ] in
          if errs = [] then Printf.printf "ok   %s seed=%d\n%!" name seed
          else begin
            incr failures;
            Printf.printf "FAIL %s seed=%d\n" name seed;
            List.iter (Printf.printf "  %s\n") errs
          end)
        workloads)
    [ 1; 97 ];
  if !failures > 0 then exit 1

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out = ref "perfbench/out" and selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat ", " workloads ^ " or all");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S how long the untraced pass measures (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer pass (1)");
      ("--out", Arg.Set_string out, "DIR spans and scratch corpora (default perfbench/out)");
      ("--self-test", Arg.Set selftest, " tiny workloads, run twice, on two seeds");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench: the repository benchmark";
  mkdir_p !out;
  if !selftest then self_test ~out:!out
  else begin
    let names =
      if !workload = "all" then workloads
      else if List.mem !workload workloads then [ !workload ]
      else begin
        prerr_endline ("unknown workload " ^ !workload ^ "; expected one of "
                       ^ String.concat ", " workloads ^ " or all");
        exit 2
      end
    in
    if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
    let outcomes =
      List.map (fun n -> run_one n ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out) names
    in
    if !trace = 1 then begin
      let file = Filename.concat !out (Printf.sprintf "spans-%s.json" !workload) in
      Ledger.write_chrome file (Ledger.spans ());
      Printf.printf "wrote %s\n" file
    end;
    let correct = List.for_all (fun o -> o.correct) outcomes in
    (match outcomes with
    | [ o ] ->
        print_endline
          (Ledger.result_json ~correct ~attempted:o.attempted ~failed:o.failed o.metrics)
    | _ ->
        List.iter2
          (fun n o ->
            Printf.printf "%s %s\n" n
              (Ledger.result_json ~correct:o.correct ~attempted:o.attempted ~failed:o.failed
                 o.metrics))
          names outcomes);
    if not correct then exit 1
  end
