"""voxelcodec: octree point-cloud geometry compression with voxel-context
entropy models, temporal context for sequences, and decoder-side coordinate
refinement."""

from .coder import (BitstreamHeader, DecodeError, RangeDecoder, RangeEncoder, coded_bpp,
                    decode_cloud, encode_cloud, payload_size)
from .dynamic import (CloudSequence, align_sequence, build_sequence_dataset,
                      decode_sequence, encode_sequence, sequence_code_lengths)
from .entropy import (AdaptiveContextModel, DynamicContextModel, EntropyModel,
                      UniformModel, VoxelContextModel, build_node_dataset,
                      load_entropy_model, model_code_lengths)
from .metrics import (RDPoint, bdbr, chamfer, estimate_normals, nearest_neighbor,
                      psnr_plane, psnr_point, rd_from_csv, rd_to_csv)
from .octree import Octree, build, reconstruct_centers
from .pointcloud import (NormalizationParams, ParseError, PointCloud, RigidTransform,
                         apply_pose, normalize, read_points, write_points)
from .refine import RefineParams, build_refine_dataset, refine_apply, train_refine
from .voxelgrid import VoxelGrid, child_region_crops, local_crops

__version__ = "0.1.0"
