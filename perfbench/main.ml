(* The opdw benchmark: one process, one workload per run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Sets the workload up from the seed, drives statements through the public
   [Opdw] / [Topology] API in a single-client closed loop, checks every
   result against the reference oracle and prints the metrics by name with
   their units. Each result's digest is kept; the oracle runs once per
   distinct statement after the measured window, so that its single-node
   executions stay out of the timings and out of peak_heap_mb. The last
   line of standard output is one JSON object: end-to-end metrics with
   [--trace 0], per-layer metrics with [--trace 1]. README.md describes the
   workloads and every metric. *)

let now = Unix.gettimeofday

(* ---- workloads ---- *)

type shape = {
  name : string;
  sf : float;
  nodes : int;
  cached : bool;         (* plan cache on *)
  elastic : bool;        (* served through Topology.Elastic in cycles *)
  fault_rate : float;    (* elastic cycles' fault plan *)
  setups : int;          (* set-ups per run; setup_s is their median *)
  queries : Tpch.Queries.t array;  (* statement pool, in Zipf rank order *)
  zipf_total : int;      (* Zipf mix size (see [mix]); 0: every statement once *)
}

(* Q19's plan joins lineitem with broadcast part in a NestedLoopJoin whose
   cost grows with the square of the scale factor (0.87 s at SF 0.002, 20.7 s
   at SF 0.01): at SF 0.05 one execution would be the whole run. It is
   measured in adhoc-cold only. *)
let without_q19 =
  Array.of_list (List.filter (fun q -> q.Tpch.Queries.id <> "Q19") Tpch.Queries.all)

let shapes =
  [ { name = "olap-warm"; sf = 0.05; nodes = 8; cached = true; elastic = false;
      fault_rate = 0.; setups = 3; queries = without_q19; zipf_total = 48 };
    { name = "adhoc-cold"; sf = 0.002; nodes = 8; cached = false; elastic = false;
      fault_rate = 0.; setups = 9; queries = Array.of_list Tpch.Queries.all; zipf_total = 0 };
    { name = "elastic-churn"; sf = 0.01; nodes = 4; cached = true; elastic = true;
      fault_rate = 0.02; setups = 5; queries = without_q19; zipf_total = 24 } ]

let zipf_s = 1.0
let elastic_grow_to = 8

(* The statement mix of one chunk: the statement of Zipf rank k appears
   max(1, round(total / (k+1)^s / H)) times, H normalizing the weights, so
   every statement appears at least once; with [zipf_total = 0], every
   statement once. *)
let mix shape =
  if shape.zipf_total = 0 then Array.to_list shape.queries
  else begin
    let w = Array.mapi (fun k _ -> 1. /. (float_of_int (k + 1) ** zipf_s)) shape.queries in
    let h = Array.fold_left ( +. ) 0. w in
    let copies k = max 1 (Float.to_int (Float.round (float_of_int shape.zipf_total *. w.(k) /. h))) in
    List.concat (List.mapi (fun k q -> List.init (copies k) (fun _ -> q)) (Array.to_list shape.queries))
  end

(* A chunk is the unit the loop runs and the traced run replays: a seeded
   shuffle of the mix, or one elastic cycle (serve a shuffled mix, grow
   with one statement of the mix, in rank order, between copy steps,
   advise, re-key the same way, serve another shuffled mix). The seed
   changes the order of the statements, never the mix: drawn one by one, a
   few hundred Zipf statements swing the mean statement time by ~10% from
   seed to seed. The fault seed of elastic cycle i is drawn from i. *)
type chunk =
  | Stmts of Tpch.Queries.t array
  | Cycle of { fault_seed : int; before : Tpch.Queries.t array;
               between : Tpch.Queries.t array; after : Tpch.Queries.t array }

let chunk_source shape seed =
  let rng = Rng.create seed in
  let mix = Array.of_list (mix shape) in
  let shuffled () =
    let a = Array.copy mix in
    Rng.shuffle rng a;
    a
  in
  let cycle = ref 0 in
  if shape.elastic then fun () ->
    incr cycle;
    let before = shuffled () in
    Cycle { fault_seed = Rng.seed (Rng.create !cycle); before; between = mix; after = shuffled () }
  else fun () -> Stmts (shuffled ())

(* ---- small statistics ---- *)

let quantile p xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = p *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let mean = function [] -> nan | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* A quantile of the statement mix: each distinct key (a statement, and
   whether it was compiled or a plan-cache hit) has the median of its
   samples as its value and its number of samples as its weight; the result
   is the value of the first key, in value order, whose cumulative weight
   reaches [p]. A quantile of the pooled samples would land inside one
   statement's spread of repeats (olap-warm's p50 sits among P1's 26 runs
   of a 102), where a few slow repeats move it by 20%, and a statement
   served half from the cache and half compiled has a median that jumps
   between the two. *)
let mix_quantile p groups =
  let meds = List.map (fun (_, xs) -> (median xs, List.length xs)) groups in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) meds in
  let total = float_of_int (List.fold_left (fun acc (_, n) -> acc + n) 0 meds) in
  let rec go acc = function
    | [] -> nan
    | [ (v, _) ] -> v
    | (v, n) :: rest ->
      let acc = acc + n in
      if float_of_int acc >= p *. total then v else go acc rest
  in
  go 0 sorted

(* Samples grouped by key, in first-seen order. *)
let group_by key xs =
  let tbl = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun x ->
       let k = key x in
       match Hashtbl.find_opt tbl k with
       | Some l -> Hashtbl.replace tbl k (x :: l)
       | None -> order := k :: !order; Hashtbl.replace tbl k [ x ])
    xs;
  List.rev_map (fun k -> (k, List.rev (Hashtbl.find tbl k))) !order

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* ---- set-up ---- *)

type setup = {
  total : float;
  datagen : float;
  load : float;
  shard_rows : float;   (* columnar shards rendered as rows for the statistics build *)
  stats_local : float;
  stats_merge : float;
  stats_rows : int;
}

(* The end-to-end set-up: exactly what a user of [Opdw.Workload] pays. *)
let setup_plain shape =
  let w, total =
    timed (fun () ->
        Opdw.Workload.tpch ~node_count:shape.nodes ~sf:shape.sf ~engine:Engine.Rset.Columnar ())
  in
  ( { total; datagen = nan; load = nan; shard_rows = nan; stats_local = nan;
      stats_merge = nan; stats_rows = 0 },
    w.Opdw.Workload.shell, w.Opdw.Workload.app )

(* The same steps as [Opdw.Workload.tpch], each timed from outside. *)
let setup_layered shape =
  let t0 = now () in
  let shell = Catalog.Shell_db.create ~node_count:shape.nodes in
  Tpch.Schema.install shell;
  let db, datagen = timed (fun () -> Tpch.Datagen.generate shape.sf) in
  let app = Engine.Appliance.create ~engine:Engine.Rset.Columnar shell in
  let (), load =
    timed (fun () ->
        List.iter
          (fun (schema, _) ->
             let name = schema.Catalog.Schema.name in
             Engine.Appliance.load_table_cols app name (Tpch.Datagen.table db name))
          Tpch.Schema.layout)
  in
  let shard_rows = ref 0. and local = ref 0. and merge = ref 0. and nrows = ref 0 in
  List.iter
    (fun (schema, dist) ->
       let name = schema.Catalog.Schema.name in
       let local_stats node =
         let shard, dt = timed (fun () -> Engine.Appliance.node_table app node name) in
         shard_rows := !shard_rows +. dt;
         nrows := !nrows + List.length shard;
         let s, dt = timed (fun () -> Catalog.Tbl_stats.of_rows schema shard) in
         local := !local +. dt;
         s
       in
       let install stats =
         let (), dt = timed (fun () -> Catalog.Shell_db.set_stats shell name (stats ())) in
         merge := !merge +. dt
       in
       match dist with
       | Catalog.Distribution.Replicated ->
         (* every node holds a full copy: one local computation *)
         let s = local_stats 0 in
         install (fun () -> s)
       | Catalog.Distribution.Hash_partitioned _ ->
         let parts = List.init shape.nodes local_stats in
         install (fun () -> Catalog.Tbl_stats.merge parts))
    Tpch.Schema.layout;
  ( { total = now () -. t0; datagen; load; shard_rows = !shard_rows; stats_local = !local;
      stats_merge = !merge; stats_rows = !nrows },
    shell, app )

(* ---- running statements ---- *)

type sample = {
  qid : string;
  planned : bool;   (* compiled, not a plan-cache hit *)
  compile : float;  (* seconds *)
  exec : float;     (* seconds *)
  sim : float;      (* simulated appliance seconds *)
  dms : float;      (* bytes moved by DMS *)
}

type env = {
  shape : shape;
  shell : Catalog.Shell_db.t;
  app : Engine.Appliance.t;
  pool : Par.t;
  options : Opdw.options;
  ordered : (string, bool) Hashtbl.t;  (* statement id -> ends with ORDER BY *)
  seen : (string * (int * int), int) Hashtbl.t;  (* (id, (rows, digest)) -> times *)
  mutable attempted : int;
  failures : (string, int) Hashtbl.t;
  mutable check_seconds : float;  (* spent comparing rows: not the system's time *)
  host : Host.t;                  (* the host's speed, sampled between statements *)
  recorder : Trace.t;
}

(* Time spent on the benchmark's own work: row checks and host samples. *)
let aside env = env.check_seconds +. env.host.Host.seconds

let failed env = Hashtbl.fold (fun _ n acc -> acc + n) env.failures 0

let fail env kind =
  Hashtbl.replace env.failures kind (1 + Option.value ~default:0 (Hashtbl.find_opt env.failures kind))

let ordered env (q : Tpch.Queries.t) =
  match Hashtbl.find_opt env.ordered q.Tpch.Queries.id with
  | Some o -> o
  | None ->
    let o = Oracle.ordered q.Tpch.Queries.sql in
    Hashtbl.replace env.ordered q.Tpch.Queries.id o;
    o

(* Run one statement and keep its rows' digest for [verify]; every failure
   kind is counted. *)
let attempt env (q : Tpch.Queries.t) f =
  env.attempted <- env.attempted + 1;
  match f () with
  | r, rows, s ->
    let ok, dt =
      timed (fun () ->
          match Oracle.digest ~ordered:(ordered env q) r rows with
          | d ->
            let key = (q.Tpch.Queries.id, d) in
            Hashtbl.replace env.seen key (1 + Option.value ~default:0 (Hashtbl.find_opt env.seen key));
            true
          | exception Failure _ -> false)
    in
    env.check_seconds <- env.check_seconds +. dt;
    Host.tick env.host;
    if ok then Some s else (fail env "wrong_rows"; None)
  | exception Check.Invalid _ -> fail env "check_invalid"; None
  | exception Fault.Exhausted { failure; _ } ->
    fail env ("fault_exhausted " ^ Fault.site_name failure.Fault.site); None
  | exception e -> fail env ("exception " ^ Printexc.to_string e); None

(* Per-statement observability: nothing when untraced, the recorder's sink
   when traced. *)
type mode = Untraced | Traced

let stmt_obs env mode =
  match mode with
  | Untraced -> Obs.null
  | Traced ->
    env.recorder.Trace.stmt <- env.recorder.Trace.stmt + 1;
    Trace.obs env.recorder

let finish_obs env mode o = if mode = Traced then Trace.collect env.recorder o

(* olap-warm and adhoc-cold: [Opdw.optimize] then [Opdw.run], each timed. *)
let serve_direct env cache mode (q : Tpch.Queries.t) =
  let obs = stmt_obs env mode in
  let res =
    attempt env q (fun () ->
        Obs.with_span obs "stmt" @@ fun () ->
        Engine.Appliance.reset_account env.app;
        let r, compile =
          timed (fun () ->
              Obs.with_span obs "bench.compile" (fun () ->
                  Opdw.optimize ~obs ~options:env.options ?cache ~pool:env.pool env.shell
                    q.Tpch.Queries.sql))
        in
        let rows, exec =
          timed (fun () -> Obs.with_span obs "bench.execute" (fun () -> Opdw.run ~obs ?cache env.app r))
        in
        let acc = env.app.Engine.Appliance.account in
        ( r, rows,
          { qid = q.Tpch.Queries.id; planned = cache = None; compile; exec;
            sim = acc.Engine.Appliance.sim_time;
            dms = acc.Engine.Appliance.bytes_moved } ))
  in
  finish_obs env mode obs;
  res

(* elastic-churn: [Topology.Elastic.run] compiles and executes in one call,
   so the split is read from the program's own [execute] span; untraced
   statements use a plain Obs context with no recorder behind it. *)
let serve_elastic env el mode (q : Tpch.Queries.t) =
  let obs = match mode with Untraced -> Obs.create () | Traced -> stmt_obs env mode in
  let res =
    attempt env q (fun () ->
        Obs.with_span obs "stmt" @@ fun () ->
        Engine.Appliance.reset_account (Topology.Elastic.app el);
        let (r, rows), wall =
          timed (fun () ->
              Obs.with_span obs "bench.elastic_run" (fun () ->
                  Topology.Elastic.run ~obs el q.Tpch.Queries.sql))
        in
        let exec =
          match Obs.find obs [ "stmt"; "bench.elastic_run"; "execute" ] with
          | Some sp -> sp.Obs.elapsed
          | None -> 0.
        in
        let acc = (Topology.Elastic.app el).Engine.Appliance.account in
        ( r, rows,
          { qid = q.Tpch.Queries.id; planned = Obs.counter obs "plancache.miss" > 0.;
            compile = wall -. exec; exec;
            sim = acc.Engine.Appliance.sim_time; dms = acc.Engine.Appliance.bytes_moved } ))
  in
  finish_obs env mode obs;
  res

type reconfig = {
  move : float;          (* grow + re-key wall, statements served in between excluded *)
  steps : float list;    (* copy-step intervals *)
  advise : float;
  harvest : int;         (* feedback records the driver logged *)
}

(* One elastic cycle on a fresh driver over the base 4-node appliance:
   serve, grow online to 8 nodes, ask the advisor, re-key one table
   online, serve. One statement is served between copy steps. *)
let run_cycle env mode ~fault_seed ~before ~between:served ~after on_sample =
  let fault =
    let r = env.shape.fault_rate in
    Fault.seeded ~seed:fault_seed
      ~rates:[ (Fault.Dms_transfer, r); (Fault.Temp_write, r); (Fault.Control_transient, r);
               (Fault.Straggler, r) ]
      ()
  in
  let el =
    Topology.Elastic.create ~cache:(Opdw.cache ()) ~options:env.options ~fault env.shell env.app
  in
  let serve q = Option.iter on_sample (serve_elastic env el mode q) in
  let cursor = ref 0 in
  let serve_next () =
    serve served.(!cursor mod Array.length served);
    incr cursor
  in
  Array.iter serve before;
  let steps = ref [] and move = ref 0. in
  let phase name f =
    let obs = match mode with Untraced -> Obs.null | Traced -> Trace.obs env.recorder in
    let mark = ref (now ()) in
    let between () =
      let t = now () in
      steps := (t -. !mark) :: !steps;
      move := !move +. (t -. !mark);
      serve_next ();
      mark := now ()
    in
    Obs.with_span obs name (fun () -> f obs between);
    let t = now () in
    steps := (t -. !mark) :: !steps;
    move := !move +. (t -. !mark);
    finish_obs env mode obs
  in
  phase "topology.grow" (fun obs between ->
      Topology.Elastic.grow ~obs ~between el ~nodes:elastic_grow_to);
  let advice, advise =
    timed (fun () ->
        let obs = match mode with Untraced -> Obs.null | Traced -> Trace.obs env.recorder in
        Obs.with_span obs "topology.advise" (fun () -> Topology.Elastic.advise ~max_tables:1 el))
  in
  phase "topology.rekey" (fun obs between ->
      match advice.Topology.Advisor.a_proposals with
      | p :: _ ->
        Topology.Elastic.redistribute ~obs ~between el ~table:p.Topology.Advisor.p_table
          ~cols:p.Topology.Advisor.p_cols
      | [] ->
        (* the advisor found nothing cheaper: re-key orders on its other
           join column so that every cycle still moves a table *)
        Topology.Elastic.redistribute ~obs ~between el ~table:"orders" ~cols:[ "o_custkey" ]);
  Array.iter serve after;
  { move = !move; steps = List.rev !steps; advise;
    harvest = Opdw.Fbk.Log.length (Topology.Elastic.log el) }

(* Run one chunk; returns the elastic cycle's reconfiguration, if any. *)
let run_chunk env cache mode chunk on_sample =
  match chunk with
  | Stmts qs ->
    Array.iter (fun q -> Option.iter on_sample (serve_direct env cache mode q)) qs;
    None
  | Cycle { fault_seed; before; between; after } ->
    Some (run_cycle env mode ~fault_seed ~before ~between ~after on_sample)

(* Warm-up: every distinct statement once through the serving path (this
   fills the plan cache of olap-warm; traced in the traced run), then
   untraced chunks of a stream of its own for [warm_seconds]: the first
   seconds after set-up run up to 20% slow while the heap settles. *)
let warm_seconds = 3.

let warm_pass env cache mode =
  if env.shape.elastic then begin
    let el =
      Topology.Elastic.create ~cache:(Opdw.cache ()) ~options:env.options ~fault:Fault.none
        env.shell env.app
    in
    Array.iter (fun q -> ignore (serve_elastic env el mode q)) env.shape.queries
  end
  else Array.iter (fun q -> ignore (serve_direct env cache mode q)) env.shape.queries

let settle env cache ~seed =
  let next = chunk_source env.shape (seed lxor 0x5eed) in
  let t0 = now () in
  while now () -. t0 < warm_seconds do
    ignore (run_chunk env cache Untraced (next ()) ignore)
  done

(* ---- output ---- *)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_json env metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed env = 0) env.attempted (failed env) (String.concat ", " fields)

let print_failures env =
  Printf.printf "fail_ratio         %.6f ratio (%d failed of %d attempted)\n"
    (float_of_int (failed env) /. float_of_int (max 1 env.attempted))
    (failed env) env.attempted;
  Hashtbl.iter (fun k n -> Printf.printf "  failure %-20s %d\n" k n) env.failures

let ms = ( *. ) 1e3
let mb bytes = bytes /. 1e6

let per_statement_rows by_stmt =
  Printf.printf "%-10s %6s %15s %15s %15s\n" "statement" "n" "compile_ms_p50" "exec_ms_p50"
    "sim_ms_p50";
  List.iter
    (fun (q : Tpch.Queries.t) ->
       match List.assoc_opt q.Tpch.Queries.id by_stmt with
       | None -> ()
       | Some ss ->
         let m f = ms (median (List.map f ss)) in
         Printf.printf "%-10s %6d %15.3f %15.3f %15.3f\n" q.Tpch.Queries.id (List.length ss)
           (m (fun s -> s.compile)) (m (fun s -> s.exec)) (m (fun s -> s.sim)))
    Tpch.Queries.all

(* ---- the two kinds of run ---- *)

(* Set-ups of the workload, with the host's speed sampled around each. *)
let build shape ~layered host =
  let last = ref None and setups = ref [] in
  let samples () = for _ = 1 to 3 do Host.sample host done in
  for _ = 1 to shape.setups do
    last := None;
    Gc.full_major ();
    samples ();
    let s, shell, app = if layered then setup_layered shape else setup_plain shape in
    setups := s :: !setups;
    last := Some (shell, app)
  done;
  samples ();
  let shell, app = Option.get !last in
  (List.rev !setups, shell, app)

let make_env shape shell app pool =
  Engine.Appliance.set_pool app pool;
  { shape; shell; app; pool; options = Opdw.default_options ~node_count:shape.nodes;
    ordered = Hashtbl.create 32; seen = Hashtbl.create 64; attempted = 0;
    failures = Hashtbl.create 4; check_seconds = 0.; host = Host.create ();
    recorder = Trace.create () }

let out_dir = "perfbench/out"

let ensure_out_dir () = if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

(* The oracle: every distinct statement compiled without a cache and run
   once on a single node over the same data; every digest seen during the
   run must equal the reference's. The reference digests depend on the
   executable and the workload's data (its scale factor), not on the seed,
   and at SF 0.05 they take ~20 s: the first run of a build computes them
   and keeps them in perfbench/out, keyed by the executable's digest, and
   later runs of the same build read them back. *)
let reference_digests env =
  let path =
    Printf.sprintf "%s/oracle-%s-%s.txt" out_dir env.shape.name
      (Digest.to_hex (Digest.file Sys.executable_name))
  in
  let expected = Hashtbl.create 32 in
  if Sys.file_exists path then begin
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.iter (fun line ->
        if line <> "" then Scanf.sscanf line "%s %d %d" (fun id n d -> Hashtbl.replace expected id (n, d)))
  end
  else begin
    Array.iter
      (fun (q : Tpch.Queries.t) ->
         let id = q.Tpch.Queries.id in
         let r = Opdw.optimize ~options:env.options ~pool:env.pool env.shell q.Tpch.Queries.sql in
         match Opdw.run_reference env.app r with
         | Some rs -> Hashtbl.replace expected id (Oracle.digest ~ordered:(ordered env q) r rs)
         | None -> failwith ("no reference plan for " ^ id))
      env.shape.queries;
    ensure_out_dir ();
    (* written whole, then renamed into place *)
    let tmp = path ^ ".tmp" in
    Out_channel.with_open_text tmp (fun oc ->
        Hashtbl.iter (fun id (n, d) -> Printf.fprintf oc "%s %d %d\n" id n d) expected);
    Sys.rename tmp path
  end;
  expected

let verify env =
  let expected = reference_digests env in
  Hashtbl.iter
    (fun (id, d) n -> if Hashtbl.find_opt expected id <> Some d then for _ = 1 to n do fail env "wrong_rows" done)
    env.seen

(* How much faster than nominal the host ran while [h] was sampled. *)
let speed (h : Host.t) = Host.nominal_ms /. ms (median h.Host.samples)

let peak_heap_mb () =
  mb (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)))

let print_shape env seed seconds trace =
  let s = env.shape in
  Printf.printf "# perfbench %s seed=%d seconds=%g trace=%d\n" s.name seed seconds trace;
  Printf.printf "# shape: sf=%g nodes=%d engine=columnar jobs=%d plan_cache=%s fault_rate=%g zipf_s=%g\n"
    s.sf s.nodes (Par.jobs env.pool) (if s.cached then "on" else "off") s.fault_rate zipf_s

let end_to_end shape ~seed ~seconds pool =
  let setup_host = Host.create () in
  let setups, shell, app = build shape ~layered:false setup_host in
  let env = make_env shape shell app pool in
  print_shape env seed seconds 0;
  let cache = if shape.cached then Some (Opdw.cache ()) else None in
  Gc.compact ();
  warm_pass env cache Untraced;
  settle env cache ~seed;
  let next = chunk_source shape seed in
  let chunks = ref [] and reconfigs = ref [] in
  Host.reset env.host;
  Host.sample env.host;
  let aside0 = aside env in
  let t0 = now () in
  (* whole chunks only, so every run serves the same statement mix *)
  while !chunks = [] || now () -. t0 < seconds do
    let got = ref [] in
    Option.iter
      (fun r -> reconfigs := r :: !reconfigs)
      (run_chunk env cache Untraced (next ()) (fun s -> got := s :: !got));
    chunks := List.rev !got :: !chunks
  done;
  let busy = now () -. t0 -. (aside env -. aside0) in
  let chunks = List.rev !chunks in
  let samples = List.concat chunks and det = List.hd chunks in
  let n = List.length samples in
  let by_stmt = group_by (fun s -> s.qid) samples in
  let by_plan = group_by (fun s -> (s.qid, s.planned)) samples in
  let q f p = ms (mix_quantile p (List.map (fun (k, ss) -> (k, List.map f ss)) by_plan)) in
  let stmt s = s.compile +. s.exec in
  let setup_s = median (List.map (fun s -> s.total) setups) in
  (* wall times are scaled to the nominal host speed (host.ml): a time by
     the speed, a rate by its inverse *)
  let at_setup = speed setup_host and at_loop = speed env.host in
  let wall =
    [ ("setup_s", "s", setup_s, at_setup);
      ("stmts_per_s", "1/s", float_of_int n /. busy, 1. /. at_loop);
      ("stmt_ms_p50", "ms", q stmt 0.5, at_loop);
      ("stmt_ms_p90", "ms", q stmt 0.9, at_loop);
      ("compile_ms_p50", "ms", q (fun s -> s.compile) 0.5, at_loop);
      ("compile_ms_p90", "ms", q (fun s -> s.compile) 0.9, at_loop);
      ("exec_ms_p50", "ms", q (fun s -> s.exec) 0.5, at_loop);
      ("exec_ms_p90", "ms", q (fun s -> s.exec) 0.9, at_loop) ]
  in
  let metrics =
    List.map (fun (name, unit, v, k) -> (name, unit, v *. k)) wall
    @ [ ("sim_ms_per_stmt", "sim_ms", ms (mean (List.map (fun s -> s.sim) det)));
        ("dms_mb_per_stmt", "MB", mb (mean (List.map (fun s -> s.dms) det)));
        ("peak_heap_mb", "MB", peak_heap_mb ()) ]
  in
  let counts =
    [ ("setup_s", Printf.sprintf "median of %d set-ups" (List.length setups));
      ("stmts_per_s",
       Printf.sprintf "%d statements in %.3f s, %d chunks; %.3f s of row checks and host samples excluded"
         n busy (List.length chunks) (aside env -. aside0));
      ("sim_ms_per_stmt", Printf.sprintf "mean of the first chunk's %d statements" (List.length det));
      ("dms_mb_per_stmt", Printf.sprintf "mean of the first chunk's %d statements" (List.length det));
      ("peak_heap_mb", "Gc top heap") ]
  in
  let (), oracle_s = timed (fun () -> verify env) in
  Printf.printf "# oracle: %d distinct statements checked in %.3f s, after the window\n"
    (Hashtbl.length env.ordered) oracle_s;
  Printf.printf
    "# host speed: %.3fx nominal around the set-ups (%d samples), %.3fx in the loop (%d samples); \
     wall times below are scaled by it\n"
    at_setup (List.length setup_host.Host.samples) at_loop (List.length env.host.Host.samples);
  List.iter
    (fun (name, unit, v) ->
       let count =
         match List.assoc_opt name counts with
         | Some c -> c
         | None ->
           Printf.sprintf "mix quantile of the medians of %d statement x plan-cache outcomes, n=%d"
             (List.length by_plan) n
       in
       let unscaled =
         List.find_map (fun (w, _, v, _) -> if w = name then Some v else None) wall
         |> Option.fold ~none:"" ~some:(Printf.sprintf "; %.4f unscaled")
       in
       Printf.printf "%-18s %14.4f %-7s (%s%s)\n" name v unit count unscaled)
    metrics;
  print_failures env;
  (match List.rev !reconfigs with
   | [] -> ()
   | rs ->
     Printf.printf "reconfig_s         %14.4f s       (median of %d cycles: online grow %d->%d + re-key)\n"
       (median (List.map (fun r -> r.move) rs)) (List.length rs) shape.nodes elastic_grow_to;
     Printf.printf "topology.advise_ms %14.4f ms      (median of %d)\n"
       (ms (median (List.map (fun r -> r.advise) rs))) (List.length rs));
  per_statement_rows by_stmt;
  print_json env metrics

(* The traced run: set-up timed step by step; the warm-up and every chunk
   traced; each traced chunk follows an untraced run of the same chunk, so
   their walls give the tracing overhead. *)
let reconcile_tolerance = 0.05

let layered shape ~seed ~seconds pool =
  let setups, shell, app = build shape ~layered:true (Host.create ()) in
  let env = make_env shape shell app pool in
  print_shape env seed seconds 1;
  let cache = if shape.cached then Some (Opdw.cache ()) else None in
  let rec_ = env.recorder in
  let traced_wall = ref 0. and untraced_wall = ref 0. and paired_traced = ref 0. in
  let traced_stmts () = rec_.Trace.stmt + 1 in
  let section mode f =
    let a0 = aside env in
    let (), dt = timed f in
    let dt = dt -. (aside env -. a0) in
    (match mode with Traced -> traced_wall := !traced_wall +. dt | Untraced -> ());
    dt
  in
  Gc.compact ();
  ignore (section Traced (fun () -> warm_pass env cache Traced));
  settle env cache ~seed;
  let next = chunk_source shape seed in
  let reconfigs = ref [] and pairs = ref 0 in
  let t0 = now () in
  while !pairs < 1 || now () -. t0 < seconds do
    let chunk = next () in
    let u = section Untraced (fun () -> ignore (run_chunk env cache Untraced chunk ignore)) in
    let t =
      section Traced (fun () ->
          Option.iter (fun r -> reconfigs := r :: !reconfigs)
            (run_chunk env cache Traced chunk ignore))
    in
    untraced_wall := !untraced_wall +. u;
    paired_traced := !paired_traced +. t;
    incr pairs
  done;
  let selfs = Trace.self_times rec_ in
  let self name = fst (Option.value ~default:(0., 0) (Hashtbl.find_opt selfs name)) in
  let nstmts = float_of_int (traced_stmts ()) in
  let per_stmt_ms name = ms (self name) /. nstmts in
  let c name = Trace.counter rec_ name in
  let per_stmt name = c name /. nstmts in
  let layer_total = Hashtbl.fold (fun k (s, _) acc -> if k = "stmt" then acc else acc +. s) selfs 0. in
  let reconcile_error = Float.abs (!traced_wall -. layer_total) /. !traced_wall in
  let med f = median (List.map f setups) in
  let dms_ops =
    [ "Shuffle"; "PartitionMove"; "ControlNodeMove"; "Broadcast"; "Trim";
      "ReplicatedBroadcast"; "RemoteCopy" ]
  in
  let total_duration name =
    List.fold_left
      (fun acc (s : Trace.span) -> if s.Trace.name = name then acc +. (s.Trace.t1 -. s.Trace.t0) else acc)
      0. rec_.Trace.spans
  in
  let hits = c "plancache.hit" and misses = c "plancache.miss" in
  let enumerated = c "pdw.exprs_enumerated" and pruned = c "pdw.exprs_pruned" in
  let cycles = List.rev !reconfigs in
  let metrics =
    [ ("tpch.datagen_s", "s", med (fun s -> s.datagen));
      ("engine.load_s", "s", med (fun s -> s.load));
      ("engine.shard_rows_s", "s", med (fun s -> s.shard_rows));
      ("catalog.stats_local_s", "s", med (fun s -> s.stats_local));
      ("catalog.stats_merge_s", "s", med (fun s -> s.stats_merge));
      ("catalog.stats_rows", "count", med (fun s -> float_of_int s.stats_rows));
      ("sqlfront.parse_ms", "ms", per_stmt_ms "parse");
      ("algebra.algebrize_ms", "ms", per_stmt_ms "algebrize");
      ("algebra.normalize_ms", "ms", per_stmt_ms "normalize");
      ("serialopt.optimize_ms", "ms", per_stmt_ms "serial_optimize");
      ("serialopt.memo_exprs", "count", per_stmt "serial.memo.exprs");
      ("memo.xml_ms", "ms", per_stmt_ms "memo_xml");
      ("memo.xml_kb", "KB", per_stmt "memo_xml.bytes" /. 1e3);
      ("analysis.analyze_ms", "ms", per_stmt_ms "analyze");
      ("pdwopt.optimize_ms", "ms", per_stmt_ms "pdw_optimize");
      ("pdwopt.exprs_enumerated", "count", per_stmt "pdw.exprs_enumerated");
      ("pdwopt.prune_ratio", "ratio", if enumerated > 0. then pruned /. enumerated else 0.);
      ("dsql.generate_ms", "ms", per_stmt_ms "dsql_generate");
      ("dsql.steps", "count", per_stmt "dsql.steps");
      ("baseline.parallelize_ms", "ms", per_stmt_ms "baseline_parallelize");
      ("check.ms", "ms", per_stmt_ms "check");
      ("core.plancache_hit_ratio", "ratio", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
      ("core.plancache_misses", "count", misses);
      ("engine.exec_ms", "ms", ms (total_duration "execute") /. nstmts);
      ("engine.op.HashJoin_ms", "ms", per_stmt_ms "engine.op.HashJoin");
      ("engine.op.NestedLoopJoin_ms", "ms", per_stmt_ms "engine.op.NestedLoopJoin");
      ("engine.op.HashAggregate_ms", "ms", per_stmt_ms "engine.op.HashAggregate");
      ("engine.op.TableScan_ms", "ms", per_stmt_ms "engine.op.TableScan");
      ("engine.op.Filter_ms", "ms", per_stmt_ms "engine.op.Filter");
      ("engine.op.Sort_ms", "ms", per_stmt_ms "engine.op.Sort");
      ("engine.join_probe_rows", "count", per_stmt "engine.join_probe_rows");
      ("dms.move_ms", "ms", per_stmt_ms "execute");
      ("dms.moves", "count",
       List.fold_left (fun acc op -> acc +. per_stmt ("engine.dms." ^ op ^ ".moves")) 0. dms_ops) ]
    @ List.map
      (fun op ->
         ("dms.moved_mb." ^ op, "MB", mb (per_stmt ("engine.dms." ^ op ^ ".network.bytes"))))
      dms_ops
    @ [ ("par.tasks", "count", per_stmt "par.tasks");
        ("topology.copy_steps", "count",
         float_of_int (List.fold_left (fun acc r -> acc + List.length r.steps) 0 cycles));
        ("fault.retries", "count", c "fault.retries");
        ("fault.replan_statements", "count", c "fault.replan_statements");
        ("feedback.harvest_records", "count",
         float_of_int (List.fold_left (fun acc r -> acc + r.harvest) 0 cycles));
        ("trace.overhead_ratio", "ratio", !paired_traced /. !untraced_wall);
        ("trace.reconcile_error", "ratio", reconcile_error) ]
  in
  verify env;
  Printf.printf "traced statements %d (warm-up included), %d chunk pairs\n" (traced_stmts ()) !pairs;
  Printf.printf "set-up: median of %d, total %.4f s\n" (List.length setups) (med (fun s -> s.total));
  Printf.printf "self time by span (ms per traced statement):\n";
  Hashtbl.fold (fun k (s, n) acc -> (k, s, n) :: acc) selfs []
  |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)
  |> List.iter (fun (k, s, n) -> Printf.printf "  %-34s %12.4f  (%d entries)\n" k (ms s /. nstmts) n);
  Printf.printf "counters (totals):\n";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) rec_.Trace.counters []
  |> List.sort compare
  |> List.iter (fun (k, v) -> Printf.printf "  %-44s %.6g\n" k v);
  Printf.printf "plan cache: %.0f hits, %.0f misses; pdw: %.0f pruned of %.0f enumerated\n" hits
    misses pruned enumerated;
  (match cycles with
   | [] -> ()
   | rs ->
     let steps = List.concat_map (fun r -> r.steps) rs in
     Printf.printf "topology.move_s %.4f s (median of %d traced cycles)\n"
       (median (List.map (fun r -> r.move) rs)) (List.length rs);
     Printf.printf "topology.copy_step_ms %.4f ms (mean of %d)\n" (ms (mean steps))
       (List.length steps);
     Printf.printf "topology.advise_ms %.4f ms (median of %d)\n"
       (ms (median (List.map (fun r -> r.advise) rs))) (List.length rs));
  Printf.printf "reconcile: layer self times %.4f s vs traced wall %.4f s: error %.4f (tolerance %.2f) %s\n"
    layer_total !traced_wall reconcile_error reconcile_tolerance
    (if reconcile_error <= reconcile_tolerance then "ok" else "EXCEEDED");
  print_failures env;
  ensure_out_dir ();
  let path = Printf.sprintf "%s/trace-%s-seed%d.json" out_dir shape.name seed in
  Trace.write_chrome rec_ path;
  Printf.printf "trace written to %s\n" path;
  print_json env metrics

(* ---- main ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME olap-warm | adhoc-cold | elastic-churn");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or traced per-layer metrics (1)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun s -> s.name = !workload) shapes with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some shape ->
    let pool = Par.create ~jobs:(Par.default_jobs ()) () in
    Fun.protect
      ~finally:(fun () -> Par.shutdown pool)
      (fun () ->
         if !trace = 0 then end_to_end shape ~seed:!seed ~seconds:!seconds pool
         else layered shape ~seed:!seed ~seconds:!seconds pool)
