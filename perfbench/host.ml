(* The host's speed. On the 2-vCPU VM this benchmark was tuned on, the
   same fixed work runs up to 1.9x faster or slower from one minute to the
   next (a set-up of fixed work took 0.60-1.14 s over ten back-to-back
   runs), with process CPU time equal to wall time: the drift is the
   host's, not the program's, and it moves every wall time of a run
   together. A fixed reference loop, timed between statements and around
   set-ups, measures that speed, and the end-to-end times are reported
   scaled to the speed at which the loop takes [nominal_ms]. The loop
   allocates nothing and its table stays in the core's caches (it is read
   once, untimed, before each sample), so neither the program's heap, nor
   its garbage collector, nor what it left in the caches changes its time. *)

(* the loop's time on that VM in its faster phases, where the scaled times
   read as wall times *)
let nominal_ms = 2.0

(* 256 KB, filled once at start-up *)
let bits = 15
let table = Array.init (1 lsl bits) (fun i -> (i * 0x9E3779B1) land 0xffffff)

(* A xorshift walk of random reads with a data-dependent branch. *)
let reference_loop () =
  let a = table and mask = (1 lsl bits) - 1 in
  let x = ref 0x2545F4914F6CDD1D and acc = ref 0 in
  for _ = 1 to 200_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let v = a.(!x land mask) in
    if v land 1 = 0 then acc := !acc + v else acc := !acc lxor v
  done;
  !acc

type t = {
  mutable samples : float list;  (* seconds per loop *)
  mutable last : float;          (* when the last sample ended *)
  mutable seconds : float;       (* spent sampling: not the system's time *)
}

let create () = { samples = []; last = 0.; seconds = 0. }

let reset t = t.samples <- []

let sample t =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (Array.fold_left ( + ) 0 table));
  let t1 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (reference_loop ()));
  let t2 = Unix.gettimeofday () in
  t.samples <- (t2 -. t1) :: t.samples;
  t.seconds <- t.seconds +. (t2 -. t0);
  t.last <- t2

(* One sample per quarter second of serving: ~1% of the wall time. *)
let tick t = if Unix.gettimeofday () -. t.last >= 0.25 then sample t
