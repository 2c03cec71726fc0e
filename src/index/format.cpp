#include "index/format.h"

namespace gpures::index {

std::string_view section_name(SectionId id) {
  switch (id) {
    case SectionId::kMeta: return "meta";
    case SectionId::kNodeNameOffsets: return "node_name_offsets";
    case SectionId::kNodeNameBlob: return "node_name_blob";
    case SectionId::kErrTime: return "err_time";
    case SectionId::kErrLast: return "err_last";
    case SectionId::kErrGpu: return "err_gpu";
    case SectionId::kErrCode: return "err_code";
    case SectionId::kErrRawXid: return "err_raw_xid";
    case SectionId::kErrRawLines: return "err_raw_lines";
    case SectionId::kLocKeys: return "loc_keys";
    case SectionId::kLocOffsets: return "loc_offsets";
    case SectionId::kLocTime: return "loc_time";
    case SectionId::kLocBit: return "loc_bit";
    case SectionId::kJobId: return "job_id";
    case SectionId::kJobStart: return "job_start";
    case SectionId::kJobEnd: return "job_end";
    case SectionId::kJobState: return "job_state";
    case SectionId::kJobGpuOffsets: return "job_gpu_offsets";
    case SectionId::kJobGpuList: return "job_gpu_list";
    case SectionId::kUnavailNode: return "unavail_node";
    case SectionId::kUnavailBegin: return "unavail_begin";
    case SectionId::kUnavailEnd: return "unavail_end";
    case SectionId::kJobExposedPos: return "job_exposed_pos";
    case SectionId::kJobExposedMasks: return "job_exposed_masks";
    case SectionId::kJobFailedPos: return "job_failed_pos";
  }
  return "unknown";
}

}  // namespace gpures::index
