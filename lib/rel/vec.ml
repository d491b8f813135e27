(* A vector made by [copy] is [shared]: its array may be another vector's,
   which pushes into the slots past this one's length, so its first push
   moves it to an array of its own. A vector that owns its array pushes in
   place; nothing writes below a length, so no copy sees a slot change. *)
type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  mutable shared : bool;
}

(* Storage cannot be preallocated without a witness element, so [capacity]
   is advisory; the array is allocated on first push. *)
let create ?capacity () =
  ignore capacity;
  { data = [||]; len = 0; shared = false }

let length v = v.len
let is_empty v = v.len = 0

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec: index out of bounds";
  v.data.(i)

let grow v x =
  let cap = Array.length v.data in
  let cap' = if cap = 0 then 16 else cap * 2 in
  let data' = Array.make cap' x in
  Array.blit v.data 0 data' 0 v.len;
  v.data <- data';
  v.shared <- false

let push v x =
  if v.shared || v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let to_array v = Array.sub v.data 0 v.len
let copy v = { data = v.data; len = v.len; shared = true }

let map f v =
  let out = create () in
  iter (fun x -> push out (f x)) v;
  out

let exists p v =
  let rec loop i = i < v.len && (p v.data.(i) || loop (i + 1)) in
  loop 0

let to_list v = Array.to_list (to_array v)

let of_list l =
  let data = Array.of_list l in
  { data; len = Array.length data; shared = false }

let append dst src = iter (push dst) src
