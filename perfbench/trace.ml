(* The traced run's recorder. The program already reports spans and
   counters into an [Obs.t]; this module listens to those events through
   an Obs sink and keeps one record per span entry: name, start, end,
   parent and statement id. The benchmark opens its own spans in the same
   contexts around every call it makes into a layer. Everything stays in
   memory until the run ends. *)

type span = {
  id : int;
  parent : int;  (* -1 for a top-level span *)
  name : string;
  stmt : int;    (* the latest statement id when the span opened; -1 before any *)
  t0 : float;
  mutable t1 : float;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable stack : span list;  (* innermost first *)
  mutable next : int;
  mutable stmt : int;
  counters : (string, float) Hashtbl.t;
}

let create () =
  { spans = []; stack = []; next = 0; stmt = -1; counters = Hashtbl.create 64 }

let sink t : Obs.sink = function
  | Obs.Span_open path ->
    let name = List.nth path (List.length path - 1) in
    let parent = match t.stack with [] -> -1 | p :: _ -> p.id in
    let now = Unix.gettimeofday () in
    let s = { id = t.next; parent; name; stmt = t.stmt; t0 = now; t1 = now } in
    t.next <- t.next + 1;
    t.stack <- s :: t.stack;
    t.spans <- s :: t.spans
  | Obs.Span_close _ ->
    (match t.stack with
     | s :: rest ->
       s.t1 <- Unix.gettimeofday ();
       t.stack <- rest
     | [] -> ())
  | Obs.Metric _ -> ()

(* A fresh context whose spans land in the recorder; read its counters
   back with [collect] once the work it observed is done. *)
let obs t = Obs.create ~sink:(sink t) ()

let collect t o =
  List.iter
    (fun (k, v) ->
       Hashtbl.replace t.counters k (v +. Option.value ~default:0. (Hashtbl.find_opt t.counters k)))
    (Obs.counters_prefixed o "")

let counter t k = Option.value ~default:0. (Hashtbl.find_opt t.counters k)

(* Self time of every span: its duration minus the time its child spans
   cover (children run one after another in the statement's domain).
   Returns name -> (total self seconds, entries). *)
let self_times t =
  let spans = Array.of_list (List.rev t.spans) in
  let child = Array.make (Array.length spans) 0. in
  Array.iter
    (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. (s.t1 -. s.t0))
    spans;
  let by_name = Hashtbl.create 64 in
  Array.iter
    (fun s ->
       let self = s.t1 -. s.t0 -. child.(s.id) in
       let total, n = Option.value ~default:(0., 0) (Hashtbl.find_opt by_name s.name) in
       Hashtbl.replace by_name s.name (total +. self, n + 1))
    spans;
  by_name

(* Chrome trace-event JSON (load it in chrome://tracing or Perfetto). *)
let write_chrome t path =
  let oc = open_out path in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity t.spans in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
       Printf.fprintf oc
         "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
          \"args\":{\"id\":%d,\"parent\":%d,\"stmt\":%d}}\n"
         (if i = 0 then "" else ",")
         s.name ((s.t0 -. base) *. 1e6) ((s.t1 -. s.t0) *. 1e6) s.id s.parent s.stmt)
    (List.rev t.spans);
  output_string oc "]}\n";
  close_out oc
